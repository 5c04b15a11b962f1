"""Command-line behavior: exit codes, records, determinism, checkpoints."""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from rds.cli import main
from rds.records import read_jsonl

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    # a fresh interpreter does not see pytest's pythonpath setting; with
    # faulthandler on, a SIGABRT makes it print every thread's stack
    env = dict(os.environ, PYTHONFAULTHANDLER="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_rds_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "rds", *argv], capture_output=True, text=True, env=_child_env()
    )


def payload_lines(out):
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    return [l for l in lines if "schema_version" not in l]


def test_verify_accepts_known_solution(capsys):
    code, out, _ = run_cli(capsys, "verify", "--x", "-4/15,8/5,4/5")
    assert code == 0
    (record,) = payload_lines(out)
    assert record["ok"] is True
    assert record["distances"] == ["28/9", "272/225", "52/25"]


def test_verify_rejects_bad_row_with_exit_1(capsys):
    code, out, err = run_cli(capsys, "verify", "--x", "38/15,-6/15,-2/15")
    assert code == 1
    (record,) = payload_lines(out)
    assert record["ok"] is False
    assert record["failing_pairs"] == [[1, 2]]
    assert "(1,2)" in err


def test_verify_duplicate_points_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--x", "1/2,1/2")
    assert code == 2
    assert "distinct" in err


@pytest.mark.parametrize("x", [",", "1/2", "1/2,,3"], ids=["none", "one", "empty-item"])
def test_verify_needs_two_points(capsys, x):
    code, out, err = run_cli(capsys, "verify", "--x", x)
    assert (code, out) == (2, "")
    assert err.startswith("rds: ") and err.count("\n") == 1


def test_nu_prints_value_and_triplet(capsys):
    code, out, _ = run_cli(capsys, "nu", "--p", "1", "--q", "2")
    assert code == 0
    (record,) = payload_lines(out)
    assert record["nu"] == 1
    assert record["triplet"] == {"alpha": 3, "beta": 4, "gamma": 5}


def test_nu_domain_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "nu", "--p", "3", "--q", "2")
    assert code == 2
    assert "0 < p < q" in err


def test_solve_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "4", "--psi", "-35/12,-4/3,-7/24,-3/4")
    assert code == 0
    (record,) = payload_lines(out)
    assert record["x"] == ["-7/4", "-7/6", "5/12", "35/24"]
    assert record["psi"][4:] == ["7/24", "15/8"]
    assert record["verified"] is True

    code, out, _ = run_cli(capsys, "solve", "--n", "4", "--psi", "4/3,3/4,5/12,0")
    assert code == 1
    (record,) = payload_lines(out)
    assert record["existence_ok"] is False
    assert record["failing_positions"] == [5, 6]


def test_solve_n2_needs_free(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "2", "--psi", "4/3", "--free", "1/2")
    assert code == 0
    (record,) = payload_lines(out)
    assert record["x"] == ["1/2", "5/6"]
    code, _, err = run_cli(capsys, "solve", "--n", "2", "--psi", "4/3")
    assert code == 2


@pytest.mark.parametrize("n, psi", [("3", "3/4,4/3,0"), ("4", "-35/12,-4/3,-7/24,-3/4")])
def test_solve_free_with_n_at_least_3_is_usage_error(capsys, n, psi):
    # the mirror of --n 2 without --free: n >= 3 has no free coordinate
    code, out, err = run_cli(capsys, "solve", "--n", n, "--psi", psi, "--free", "1")
    assert (code, out) == (2, "")
    assert err == f"rds: --free is for n = 2 only, got n={n}\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--n", "2", "--psi", "4/3", "--free", "2/3"], "distinct"),  # coincident points
        (["--n", "3", "--psi", "4/3,4/3,4/3"], "distinct"),
        (["--n", "3", "--psi", "1,2,5/2"], "verified"),  # 1 is not a ratio
    ],
)
def test_solve_failures_share_one_record(capsys, argv, field):
    code, out, err = run_cli(capsys, "solve", *argv)
    assert code == 1 and err == ""
    (record,) = payload_lines(out)
    assert record[field] is False
    assert record["verified"] is False
    assert record["distances"] == []
    assert record["existence_ok"] is True and record["failing_positions"] == []


def test_complete_reports_tail(capsys):
    code, out, _ = run_cli(capsys, "complete", "--n", "4", "--psi", "-208/105,-20/21,208/105,-8/15")
    assert code == 0
    (record,) = payload_lines(out)
    assert record["tail"] == ["12/5", "24/7"]
    assert record["existence_ok"] is True


def test_triplets_jsonl_and_csv(capsys):
    code, out, _ = run_cli(capsys, "triplets", "--gamma-max", "25")
    assert code == 0
    records = payload_lines(out)
    assert records[0] == {"alpha": 3, "beta": 4, "gamma": 5}
    assert len(records) == 4
    code, out, _ = run_cli(capsys, "triplets", "--gamma-max", "25", "--format", "csv")
    assert out.splitlines()[0] == "alpha,beta,gamma"
    assert out.splitlines()[1] == "3,4,5"


def test_ratios_records(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--gamma-max", "25")
    assert code == 0
    records = payload_lines(out)
    assert len(records) == 17
    four_thirds = next(r for r in records if r["psi"] == "4/3")
    assert four_thirds == {"psi": "4/3", "gamma": 5, "class": "positive/naturally_ordered"}
    code, out, _ = run_cli(capsys, "ratios", "--gamma-max", "25", "--no-zero")
    assert len(payload_lines(out)) == 16
    # the zero ratio has no hypotenuse: an empty CSV cell
    code, out, _ = run_cli(capsys, "ratios", "--gamma-max", "5", "--format", "csv")
    assert code == 0
    assert out == (
        "psi,gamma,class\n"
        "-4/3,5,negative/naturally_ordered\n"
        "-3/4,5,negative/oppositely_ordered\n"
        "0,,zero/none\n"
        "3/4,5,positive/oppositely_ordered\n"
        "4/3,5,positive/naturally_ordered\n"
    )


def test_search_csv_joins_lists_with_semicolons(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--gamma-max", "5", "--format", "csv")
    assert code == 0
    assert out == (
        "n,x,psi,distances,general_position\n"
        "3,-41/24;3/8;23/24,-4/3;-3/4;4/3,125/36;10/3;35/36,True\n"
        "3,-17/12;1/12;2/3,-4/3;-3/4;3/4,5/2;125/48;35/48,True\n"
        "3,-4/3;0;4/3,-4/3;0;4/3,20/9;8/3;20/9,False\n"
        "3,-25/24;-7/24;7/24,-4/3;-3/4;0,5/4;5/3;7/12,True\n"
        "3,-25/24;-7/24;25/24,-4/3;0;3/4,5/4;25/12;5/3,True\n"
        "3,-25/24;7/24;25/24,-3/4;0;4/3,5/3;25/12;5/4,True\n"
        "3,-23/24;-3/8;41/24,-4/3;3/4;4/3,35/36;10/3;125/36,True\n"
        "3,-3/4;0;3/4,-3/4;0;3/4,15/16;3/2;15/16,False\n"
        "3,-2/3;-1/12;17/12,-3/4;3/4;4/3,35/48;125/48;5/2,True\n"
        "3,-7/24;7/24;25/24,0;3/4;4/3,7/12;5/3;5/4,True\n"
    )


def test_count_csv_matches_reference_layout(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--gamma-list", "25,29")
    assert code == 0
    assert out.splitlines() == ["gamma,theta_gp,theta_all", "25,672,680", "29,1320,1330"]


def test_count_envelope_echoes_no_zero(capsys):
    argv = ["count", "--n", "3", "--gamma-list", "25", "--format", "jsonl"]
    with_zero = json.loads(run_cli(capsys, *argv)[1].splitlines()[0])
    without = json.loads(run_cli(capsys, *argv, "--no-zero")[1].splitlines()[0])
    assert with_zero["config"] == {"n": 3, "mode": "ordered_dedup", "include_zero": True}
    assert without["config"] == {"n": 3, "mode": "ordered_dedup", "include_zero": False}


def test_count_csv_keeps_the_bench_digest(capsys):
    # the 16-bound n = 3 count on 2 workers: the sha256 of its stdout that
    # bench/workloads.py checks, so the echo reaches JSONL only
    gammas = "25,29,41,53,61,65,73,85,89,97,101,109,113,125,137,145"
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--gamma-list", gammas, "--workers", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6e2d9a497251af82bdb76b78361461f2b8ec5217ad73df38ae1436c49ca67186"
    )


# sha256 of the n = 3 JSONL stdout, with its exclusion counts, taken while
# every run was cut into chunks and its flags tallied with a Counter
@pytest.mark.parametrize(
    "gamma, zero, digest",
    [
        ("109", [], "b6014fef61aafe7956d309f8430cf9992c28a9c9ce79531fbfb590d62c43fbb8"),
        ("109", ["--no-zero"], "d5b1132ccdbcdddd69ae692036cff96d194894a603cd417fa729193af57f862d"),
        ("145", [], "211ca167cf0a42fab7cb2648f8c93f66cc861ff180a4bd3ade507e4dc398d8b4"),
        ("145", ["--no-zero"], "dc8febcb9ea437629d7dc8efd9637156221d233e8378c1d6fa856468e0c3ce97"),
        ("301", [], "2881a365e18b7be5d6157d881be5666b07c4a3c503d935a746834ddc0a616f96"),
        ("301", ["--no-zero"], "41482e8b4d5ea4e34ef9184d9da4b7475f96d8131d0f58eb0aaaef78e1634f3d"),
    ],
    ids=["g109", "g109-no-zero", "g145", "g145-no-zero", "g301", "g301-no-zero"],
)
def test_count_breakdown_keeps_its_digest(capsys, gamma, zero, digest):
    argv = ["count", "--n", "3", "--format", "jsonl", "--gamma-list", gamma, *zero]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("ordered", "0de11d90b07a3dcdfac4f0a9d5690367512a41a53085d36838e150f9686180fe"),
        ("multiset", "9b357ae553c93650ee2ada6bf8b9d834d548c4436ac2a0ffcaec393738da5c8c"),
        ("subset", "2963e6fe7deb52ff900dcf24d66e8c6814caa8ef04d8d98ffcb5f8710a2ee41b"),
    ],
)
def test_count_n4_keeps_its_digest(capsys, mode, digest):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--gamma-list", "25,41", "--mode", mode)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for records built in the library layer: ratio classes,
# completions and probe records
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["ratios", "--gamma-max", "65"], 0, "d9a93c93af8fdc146663b8c7b20ec6cfa5d6df8b01098a58ef43e5c3bd8e0865"),
        (
            ["ratios", "--gamma-max", "65", "--format", "csv"],
            0,
            "9e776188b82da3071805633f622ce1806e99207fe3171c0ea0be15897b6db115",
        ),
        (
            ["complete", "--n", "4", "--psi", "4/3,3/4,5/12,0"],
            0,
            "6f24fd725a5517f292a58feaaeb0cb54c0b8682427fff4b53499ef264a4dde5e",
        ),
        (
            ["density-probe", "--samples", "20", "--gamma-cap", "1000", "--seed", "3"],
            1,
            "723d2c330cae3dc1fea60a5caf6d0bf52d223e9a9141f26407c66b72bb657096",
        ),
    ],
    ids=["ratios-jsonl", "ratios-csv", "complete-jsonl", "density-probe-samples"],
)
def test_library_records_keep_their_bytes(capsys, argv, code, digest):
    got_code, out, _ = run_cli(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_envelope_keeps_its_bytes(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--gamma-max", "13")
    assert code == 0
    assert hashlib.sha256(out.splitlines(keepends=True)[0].encode()).hexdigest() == (
        "e4410b25f07606efb63bc8fa3f30f709419ff35ce7ba3e63b8e51ae99ac1341f"
    )


def test_density_probe_single_and_missing(capsys):
    code, out, _ = run_cli(capsys, "density-probe", "--lo", "1/2", "--hi", "11/20", "--gamma-cap", "25")
    assert code == 0
    (record,) = payload_lines(out)
    assert record["psi"] == "8/15" and record["gamma"] == 17
    code, out, _ = run_cli(capsys, "density-probe", "--lo", "1/2", "--hi", "11/20", "--gamma-cap", "5")
    assert code == 1
    (record,) = payload_lines(out)
    assert record["psi"] is None
    # lo < 0 < hi: zero is the answer and has no hypotenuse
    code, out, _ = run_cli(capsys, "density-probe", "--lo", "-1/2", "--hi", "1/3", "--gamma-cap", "25")
    assert code == 0
    assert out.splitlines()[1] == (
        '{"psi": "0", "gamma": null, "class": "zero/none", "lo": "-1/2", "hi": "1/3"}'
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--samples", "-3"], "--samples"),
        (["--samples", "0"], "--samples"),
        (["--samples", "2", "--width", "7"], "--width"),
        (["--samples", "2", "--width", "0"], "--width"),
        (["--samples", "2", "--width", "-1/50"], "--width"),
        # --samples draws its own intervals, so a given one would be dropped
        (["--samples", "2", "--lo", "0", "--hi", "1"], "--samples"),
        (["--samples", "2", "--lo", "0"], "--samples"),
        (["--samples", "2", "--hi", "1"], "--samples"),
        # only --samples draws intervals, so a width or a seed without it would be ignored
        (["--lo", "1/2", "--hi", "1", "--width", "7"], "--width"),
        (["--lo", "1/2", "--hi", "1", "--width", "1/50"], "--width"),
        (["--lo", "1/2", "--hi", "1", "--seed", "5"], "--seed"),
        (["--lo", "1/2", "--hi", "1", "--seed", "0"], "--seed"),
        (["--lo", "1/2", "--hi", "1", "--width", "7", "--seed", "5"], "--width"),
        (["--width", "1/50"], "--width"),
    ],
    ids=[
        "samples-negative", "samples-zero", "width-past-6", "width-zero", "width-negative",
        "samples-with-interval", "samples-with-lo", "samples-with-hi",
        "width-without-samples", "default-width-without-samples", "seed-without-samples",
        "default-seed-without-samples", "width-and-seed-without-samples", "width-alone",
    ],
)
def test_density_probe_rejects_bad_sampling_flags(capsys, argv, flag):
    code, out, err = run_cli(capsys, "density-probe", "--gamma-cap", "25", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"rds: {flag} must be ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bounds", [["--lo", "-1", "--hi", "1"], ["--lo", "1/2", "--hi", "1"]], ids=["zero-inside", "zero-outside"]
)
@pytest.mark.parametrize("cap", ["0", "-7"])
def test_density_probe_rejects_a_cap_below_1(capsys, bounds, cap):
    code, out, err = run_cli(capsys, "density-probe", *bounds, "--gamma-cap", cap)
    assert (code, out) == (2, "")
    assert err == f"rds: gamma_cap must be positive, got {cap}\n"


def test_density_probe_widest_width_stays_inside(capsys):
    # width 6 is all of (-3, 3): every sample is that interval
    code, out, _ = run_cli(capsys, "density-probe", "--gamma-cap", "25", "--samples", "2", "--width", "6")
    assert code == 0
    assert [(r["lo"], r["hi"]) for r in payload_lines(out)] == [("-3", "3")] * 2


def test_density_probe_batch_deterministic(capsys):
    args = ("density-probe", "--samples", "10", "--seed", "7", "--gamma-cap", "100000")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["triplets", "--gamma-max", "25", "--bogus"])
    assert exc.value.code == 2


def test_gp_off_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "3", "--gamma-max", "25", "--gp", "off"])
    assert exc.value.code == 2


def test_tables_takes_no_workers(capsys):
    # tables counts only n = 3, which always runs in one process
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, merged",
    [
        (["verify", "--x", "-4/15,8/5,4/5"], ["verify", "--x=-4/15,8/5,4/5"]),
        (["verify", "--x=-1"], ["verify", "--x=-1"]),
        (["--x", "--x", "-1"], ["--x=--x", "-1"]),  # a merged item takes no second value
        (["verify", "--x"], ["verify", "--x"]),  # a value flag as the last token
        (["search", "--n", "-3"], ["search", "--n", "-3"]),  # --n is not a value flag
    ],
)
def test_merge_negative_values(argv, merged):
    from rds.cli import _merge_negative_values

    assert _merge_negative_values(argv) == merged


def test_search_out_deterministic_across_workers(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        path = tmp_path / f"w{workers}.jsonl"
        code = main([
            "search", "--n", "4", "--gamma-max", "25",
            "--workers", str(workers), "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    envelope, records = read_jsonl(str(tmp_path / "w1.jsonl"))
    assert envelope["config"]["gamma_bound"] == 25
    assert "workers" not in envelope["config"]
    assert len(records) == 156


@pytest.mark.parametrize("mode", ["ordered", "multiset", "subset"])
@pytest.mark.parametrize("n, gammas", [("3", "25,65,109"), ("4", "25,41")], ids=["n3", "n4"])
def test_count_bytes_do_not_depend_on_workers(capsys, n, gammas, mode):
    argv = ["count", "--n", n, "--gamma-list", gammas, "--mode", mode, "--format", "jsonl"]
    one = run_cli(capsys, *argv, "--workers", "1")
    two = run_cli(capsys, *argv, "--workers", "2")
    assert one[0] == two[0] == 0
    assert one[1] == two[1] and len(one[1].splitlines()) == 1 + len(gammas.split(","))


def test_count_checks_every_bound_before_writing(tmp_path, capsys):
    argv = ["count", "--n", "3", "--gamma-list", "25,0"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("rds: ") and err.count("\n") == 1
    previous = tmp_path / "previous.csv"
    previous.write_bytes(b"previous output\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(previous))
    assert (code, out) == (2, "")
    assert err.startswith("rds: ") and err.count("\n") == 1
    assert previous.read_bytes() == b"previous output\n"


def _rds_session(*argv, python_args=("-m", "rds")):
    # its own process group, so that a signal to the group, as Ctrl-C in a
    # terminal sends, reaches the child and not the test.  SIGINT starts at
    # its default: a child that inherits it ignored, as from a background
    # job of a non-interactive shell, installs no KeyboardInterrupt handler
    return subprocess.Popen(
        [sys.executable, *python_args, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(), start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )


def _communicate(proc, timeout=120):
    # on a timeout the child prints its threads' stacks on SIGABRT (see
    # _child_env), and is killed if it has not exited 10 s later
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGABRT)
        try:
            _, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        pytest.fail(f"the child did not exit within {timeout} s; its stderr:\n{err}")


@pytest.mark.parametrize(
    "n, csv",
    [
        ("3", "gamma,theta_gp,theta_all\n25,672,680\n29,1320,1330\n41,3640,3654\n"),
        ("4", "gamma,theta_gp,theta_all\n25,16,156\n29,36,321\n41,40,859\n"),
    ],
    ids=["n3", "n4"],
)
def test_n3_count_on_workers_starts_no_process(capsys, monkeypatch, n, csv):
    # --workers is accepted and changes nothing: every n runs in this
    # process, which neither forks nor holds a child afterwards
    import multiprocessing

    def no_fork():
        raise AssertionError("a count started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, _ = run_cli(capsys, "count", "--n", n, "--gamma-list", "25,29,41", "--workers", "2")
    assert code == 0
    assert out == csv
    assert multiprocessing.active_children() == []


def test_ctrl_c_on_workers_exits_130():
    proc = _rds_session("count", "--n", "4", "--gamma-list", "25,301", "--workers", "2")
    try:
        # the first bound is done and the second, about 12 s of work, starts
        assert proc.stderr.readline().startswith("count: gamma=25 ")
        os.killpg(proc.pid, signal.SIGINT)  # what Ctrl-C in a terminal does
    finally:
        _, err = _communicate(proc)
    assert proc.returncode == 130
    assert err == "rds: interrupted\n"


def test_search_into_a_pipe_closed_after_one_line_exits_0():
    # solution lines are not flushed one by one, so the closed pipe shows
    # at a block write or at the last flush; either way the run ends quietly
    proc = _rds_session("search", "--n", "3", "--gamma-max", "65")
    try:
        assert proc.stdout.readline().startswith('{"schema_version": 1, ')
    finally:
        proc.stdout.close()
        _, err = _communicate(proc)
    assert (proc.returncode, err) == (0, "")


def test_count_rows_reach_a_pipe_as_each_bound_finishes():
    proc = _rds_session("count", "--n", "4", "--gamma-list", "25,301")
    try:
        assert proc.stdout.readline() == "gamma,theta_gp,theta_all\n"
        assert proc.stdout.readline() == "25,16,156\n"
        # the second bound, about 12 s of work, is still running
        assert proc.poll() is None
    finally:
        proc.kill()
        _communicate(proc)


def test_search_checkpoint_resume_via_cli(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    assert main(["search", "--n", "4", "--gamma-max", "25", "--out", str(base)]) == 0
    capsys.readouterr()

    from rds.pythagorean import build_pool
    from rds.search import SearchConfig, run_enumeration

    ckpt = tmp_path / "cli.ckpt"
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=str(ckpt))
    _, completed = run_enumeration(cfg, build_pool(25), stop_after_ranges=2)
    assert not completed and ckpt.exists()

    resumed = tmp_path / "resumed.jsonl"
    code = main([
        "search", "--n", "4", "--gamma-max", "25",
        "--checkpoint", str(ckpt), "--out", str(resumed),
    ])
    assert code == 0
    assert resumed.read_bytes() == base.read_bytes()
    assert not ckpt.exists()


def test_ctrl_c_exits_130_and_resumes(tmp_path, capsys, monkeypatch):
    import rds.search

    argv = ["search", "--n", "4", "--gamma-max", "25", "--workers", "1"]
    assert main(argv) == 0
    base = capsys.readouterr().out

    process_range = rds.search.process_range
    calls = []

    def interrupt_third_chunk(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return process_range(*args, **kwargs)

    monkeypatch.setattr(rds.search, "process_range", interrupt_third_chunk)
    ckpt = tmp_path / "ctrl-c.ckpt"
    assert main(argv + ["--checkpoint", str(ckpt)]) == 130
    _, err = capsys.readouterr()
    assert err == "rds: interrupted\n"
    # the checkpoint is one file, whose last commit is the second chunk's
    assert os.listdir(tmp_path) == ["ctrl-c.ckpt"]
    assert json.loads(ckpt.read_text().splitlines()[-1])["next_rank"] == calls[1][4]  # hi

    monkeypatch.undo()
    assert main(argv + ["--checkpoint", str(ckpt)]) == 0
    assert capsys.readouterr().out == base
    assert not ckpt.exists()


def test_checkpoint_io_error_is_one_line_exit_2(tmp_path):
    ckpt = tmp_path / "missing" / "ck"
    proc = run_rds_process("search", "--n", "3", "--gamma-max", "25", "--checkpoint", str(ckpt))
    assert proc.returncode == 2
    assert proc.stderr.startswith("rds: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    # the error names the path given, the only file a checkpoint has
    assert repr(str(ckpt)) in proc.stderr and ".partial" not in proc.stderr


def test_corrupt_checkpoint_leaves_out_file_intact(tmp_path, capsys):
    # the run fails before --out is opened, so the previous output survives
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text("{bad")
    out = tmp_path / "previous.jsonl"
    out.write_bytes(b"previous output\n")
    code, stdout, err = run_cli(
        capsys, "search", "--n", "3", "--gamma-max", "25",
        "--checkpoint", str(ckpt), "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("rds: ") and err.count("\n") == 1
    assert out.read_bytes() == b"previous output\n"


def test_console_script_installed():
    proc = run_rds_process("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("rds ")


def test_cli_determinism_same_argv(capsys):
    code1, out1, _ = run_cli(capsys, "ratios", "--gamma-max", "65")
    code2, out2, _ = run_cli(capsys, "ratios", "--gamma-max", "65")
    assert (code1, out1) == (code2, out2)


def test_rds_workers_env_is_ignored(capsys, monkeypatch):
    # --workers defaults to 1 whatever the environment holds, and a value
    # below 1 is still a usage error
    from rds.cli import build_parser

    for value in ("3", "junk"):
        monkeypatch.setenv("RDS_WORKERS", value)
        assert build_parser().parse_args(["search", "--n", "3", "--gamma-max", "25"]).workers == 1
        assert build_parser().parse_args(["count", "--n", "3", "--gamma-list", "25"]).workers == 1
    code, out, err = run_cli(capsys, "search", "--n", "3", "--gamma-max", "25", "--workers", "0")
    assert (code, out) == (2, "") and "workers must be >= 1" in err


def test_tables_exit_code_follows_regression(capsys, monkeypatch):
    import rds.reference as reference_mod

    monkeypatch.setattr(reference_mod, "tables_regression", lambda **kw: (["[PASS] stub"], True))
    assert main(["tables"]) == 0
    monkeypatch.setattr(reference_mod, "tables_regression", lambda **kw: (["[FAIL] stub"], False))
    assert main(["tables"]) == 1
    capsys.readouterr()


def test_cli_import_leaves_the_bundled_tables_unloaded():
    # only `rds tables` reads them, so no other command pays their import
    script = "import sys, rds.cli; print('rds.reference' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_records_import_leaves_the_search_unloaded():
    script = "import sys, rds.records; print('rds.search' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_no_rds_import_loads_dataclasses_or_inspect():
    # every rds child imports rds.cli, and `rds tables` rds.reference; -S
    # leaves out whatever the site's .pth files import
    script = "import sys, rds.cli, rds.reference; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_growth_csv(capsys):
    code, out, _ = run_cli(capsys, "growth", "--gamma-list", "25,100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,primitive_triplets,pool_size,asymptotic_reference"
    assert lines[1].startswith("25,4,17,")
    assert lines[2].startswith("100,16,65,")


@pytest.mark.parametrize(
    "argv",
    [("count", "--n", "3", "--gamma-list", ","), ("growth", "--gamma-list", ",")],
    ids=["count", "growth"],
)
def test_empty_gamma_list_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "rds: --gamma-list is empty\n"


@pytest.mark.parametrize("command", [("count", "--n", "3"), ("growth",)], ids=["count", "growth"])
@pytest.mark.parametrize("gammas", ["25,,29", "25,", ",25"], ids=["inner", "trailing", "leading"])
def test_empty_gamma_item_is_usage_error(capsys, command, gammas):
    code, out, err = run_cli(capsys, *command, "--gamma-list", gammas, "--format", "csv")
    assert (code, out) == (2, "")
    assert err == f"rds: --gamma-list has an empty item: {gammas!r}\n"


@pytest.mark.parametrize("command", [("count", "--n", "3"), ("growth",)], ids=["count", "growth"])
@pytest.mark.parametrize("gammas, item", [("25,abc", "abc"), ("2.5", "2.5"), ("25, x ", " x ")])
def test_non_integer_gamma_item_is_usage_error(capsys, command, gammas, item):
    code, out, err = run_cli(capsys, *command, "--gamma-list", gammas, "--format", "csv")
    assert (code, out) == (2, "")
    assert err == f"rds: --gamma-list item {item!r} is not an integer\n"


# a table's CSV header is its JSONL record's keys, so CSV drops no field;
# count's reference layout is test_count_csv_matches_reference_layout's
@pytest.mark.parametrize(
    "argv",
    [
        ["triplets", "--gamma-max", "25"],
        ["ratios", "--gamma-max", "25"],
        ["search", "--n", "3", "--gamma-max", "13"],
        ["growth", "--gamma-list", "25,100"],
    ],
    ids=["triplets", "ratios", "search", "growth"],
)
def test_csv_header_is_the_jsonl_record(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "jsonl")
    assert code == 0
    keys = list(payload_lines(out)[0])
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].split(",") == keys


# the nu, complete, verify, solve and density-probe records have no CSV
# table, which would drop fields, so they take no --format; count's JSONL
# always carries its exclusion counts, so it takes no --breakdown
@pytest.mark.parametrize(
    "argv",
    [
        ["nu", "--p", "1", "--q", "2", "--format", "csv"],
        ["complete", "--n", "4", "--psi", "4/3,3/4,5/12,0", "--format", "csv"],
        ["verify", "--x", "-4/15,8/5,4/5", "--format", "csv"],
        ["solve", "--n", "3", "--psi", "4/3,8/15,12/5", "--format", "csv"],
        ["density-probe", "--lo", "1/2", "--hi", "11/20", "--gamma-cap", "25", "--format", "csv"],
        ["count", "--n", "3", "--gamma-list", "109", "--breakdown"],
        ["count", "--n", "3", "--gamma-list", "109", "--breakdown", "--format", "csv"],
        ["count", "--n", "3", "--gamma-list", "109", "--breakdown", "--format", "jsonl"],
    ],
    ids=[
        "nu-csv",
        "complete-csv",
        "verify-csv",
        "solve-csv",
        "density-probe-csv",
        "count-breakdown",
        "count-breakdown-csv",
        "count-breakdown-jsonl",
    ],
)
def test_flags_that_would_drop_fields_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: " in err
