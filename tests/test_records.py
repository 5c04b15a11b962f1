"""Serialization: envelopes, JSONL/CSV round trips, stable rendering."""

import io
import json

import pytest

from rds.pythagorean import build_pool, primitive_triplets
from rds.records import (
    count_record,
    envelope,
    parse_solution_record,
    ratio_record,
    read_jsonl,
    render_jsonl,
    solution_record,
    triplet_record,
    write_records,
    write_records_path,
)
from rds.search import SearchConfig, count_solutions, search
from rds.solver import solution_from_x
from rds.rat import parse_rat


def fig1_solution():
    return solution_from_x([parse_rat(s) for s in ("-4/15", "8/5", "4/5")])


def test_envelope_fields():
    env = envelope("solution", {"n": 3})
    assert env["schema_version"] == 1
    assert env["produced_by"].startswith("rds ")
    assert env["kind"] == "solution"
    assert env["config"] == {"n": 3}


def test_triplet_and_ratio_records():
    t = primitive_triplets(5)[0]
    assert triplet_record(t) == {"alpha": 3, "beta": 4, "gamma": 5}
    rec = ratio_record(parse_rat("4/3"))
    assert rec == {"psi": "4/3", "gamma": 5, "class": "positive/naturally_ordered"}
    assert ratio_record(parse_rat("0"))["gamma"] is None


def test_solution_record_shape_and_round_trip():
    sol = fig1_solution()
    rec = solution_record(sol)
    assert rec["x"] == ["-4/15", "8/5", "4/5"]
    assert rec["psi"] == ["4/3", "8/15", "12/5"]
    assert rec["distances"] == ["28/9", "272/225", "52/25"]
    assert rec["general_position"] is True
    assert parse_solution_record(json.loads(json.dumps(rec))) == sol


def test_negative_rational_rendering():
    assert str(parse_rat("-35/12")) == "-35/12"
    sol = solution_from_x([parse_rat(s) for s in ("-7/4", "-7/6", "5/12", "35/24")])
    assert solution_record(sol)["x"][0] == "-7/4"


def test_jsonl_lines_independently_parseable():
    pool = build_pool(25)
    sols = list(search(SearchConfig(n=4, gamma_bound=25), pool))
    text = render_jsonl((solution_record(s) for s in sols), kind="solution", config={"n": 4})
    lines = text.splitlines()
    assert len(lines) == len(sols) + 1  # envelope header + one per solution
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["kind"] == "solution"
    assert all("x" in rec for rec in parsed[1:])
    for rec, sol in zip(parsed[1:], sols):
        assert parse_solution_record(rec) == sol


def test_csv_fixed_headers():
    report = count_solutions(SearchConfig(n=3, gamma_bound=25), build_pool(25))
    buf = io.StringIO()
    n = write_records([count_record(report)], buf, fmt="csv", kind="count")
    assert n == 1
    assert buf.getvalue().splitlines() == ["gamma,theta_gp,theta_all", "25,672,680"]


def test_empty_streams():
    buf = io.StringIO()
    assert write_records([], buf, fmt="csv", kind="count") == 0
    assert buf.getvalue() == "gamma,theta_gp,theta_all\n"
    buf = io.StringIO()
    assert write_records([], buf, fmt="jsonl", kind="count") == 0
    assert json.loads(buf.getvalue())["kind"] == "count"


def test_count_record_breakdown():
    report = count_solutions(SearchConfig(n=3, gamma_bound=109), build_pool(109))
    rec = count_record(report)
    assert rec["exclusions"] == {"mirror_zero": 36, "zero_sum_extra": 4}
    assert len(rec["extra_zero_sum_sets"]) == 4


def test_write_records_path_and_read_back(tmp_path):
    path = str(tmp_path / "sols.jsonl")
    sol = fig1_solution()
    n = write_records_path([solution_record(sol)], path, kind="solution", config={"n": 3})
    assert n == 1
    envelope, payloads = read_jsonl(path)
    assert envelope["config"] == {"n": 3}
    assert [parse_solution_record(r) for r in payloads] == [sol]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        write_records([], io.StringIO(), fmt="xml", kind="count")


class _FlushCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("n", [3, 4])
def test_solution_lines_are_flushed_once_at_the_end(fmt, n):
    # search() has finished its run before the first solution is read, so
    # a flush per line would hand a reader nothing sooner
    sols = list(search(SearchConfig(n=n, gamma_bound=25), build_pool(25)))
    out = _FlushCounter()
    assert write_records(iter(sols), out, fmt=fmt) == len(sols) > 100
    assert out.flushes == 2  # the header line, and the end
    assert len(out.getvalue().splitlines()) == len(sols) + 1


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_dict_rows_are_flushed_as_each_is_written(fmt):
    out = _FlushCounter()
    seen = []

    def rows():
        # the flushes made before each row is computed
        for gamma in (25, 29, 41):
            seen.append(out.flushes)
            yield {"gamma": gamma, "theta_gp": 0, "theta_all": 0}

    assert write_records(rows(), out, fmt=fmt, kind="count") == 3
    assert seen == [1, 2, 3]  # the header, then each row before the next


def test_one_point_solution_line_keeps_the_json_bytes():
    from rds.records import solution_line

    sol = solution_from_x([parse_rat("3/4")])
    assert solution_line(sol) == json.dumps(solution_record(sol))
    assert json.loads(solution_line(sol))["psi"] == []


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("n", [3, 4])
def test_psi_text_cache_never_changes_the_bytes(fmt, n):
    from rds.records import _psi_text

    bound = 1 << 14
    sols = list(search(SearchConfig(n=n, gamma_bound=25), build_pool(25)))
    # the same records from the Fraction views, written as dicts: no cache is read
    reference = io.StringIO()
    rows = (
        {
            "n": s.n,
            "x": [str(v) for v in s.x],
            "psi": [str(v) for v in s.psi],
            "distances": [str(v) for v in s.distances],
            "general_position": s.general_position,
        }
        for s in sols
    )
    write_records(rows, reference, fmt=fmt)

    def render() -> str:
        def checked():
            for s in sols:
                assert _psi_text.cache_info().currsize <= bound
                yield s

        out = io.StringIO()
        write_records(checked(), out, fmt=fmt)
        assert _psi_text.cache_info().currsize <= bound
        return out.getvalue()

    _psi_text.cache_clear()
    cold = render()
    warm = render()
    # no pair sum of these sets lies over 2^40, so every one of these is unrelated
    for k in range(bound):
        _psi_text(2 * k + 1, 1 << 40)
    assert _psi_text.cache_info().currsize == bound
    evicted = render()
    assert _psi_text.cache_info().currsize == bound
    assert cold == warm == evicted == reference.getvalue()
