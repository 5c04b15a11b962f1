"""Command-line behavior: exit codes, records, determinism, checkpoints."""

import json
import subprocess
import sys

import pytest

from rds.cli import main
from rds.records import read_jsonl


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_count_csv_matches_reference_layout(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--gamma-list", "25,29")
    assert code == 0
    assert out.splitlines() == ["gamma,theta_gp,theta_all", "25,672,680", "29,1320,1330"]


def test_density_probe_single_and_missing(capsys):
    code, out, _ = run_cli(capsys, "density-probe", "--lo", "1/2", "--hi", "11/20", "--gamma-cap", "25")
    assert code == 0
    (record,) = payload_lines(out)
    assert record["psi"] == "8/15" and record["gamma"] == 17
    code, out, _ = run_cli(capsys, "density-probe", "--lo", "1/2", "--hi", "11/20", "--gamma-cap", "5")
    assert code == 1
    (record,) = payload_lines(out)
    assert record["psi"] is None


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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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

    def interrupt_third_chunk(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return process_range(*args)

    monkeypatch.setattr(rds.search, "process_range", interrupt_third_chunk)
    ckpt = tmp_path / "ctrl-c.ckpt"
    assert main(argv + ["--checkpoint", str(ckpt)]) == 130
    _, err = capsys.readouterr()
    assert err == "rds: interrupted\n"
    # the checkpoint holds the two chunks that completed
    assert json.loads(ckpt.read_text())["next_rank"] == calls[1][-1]

    monkeypatch.undo()
    assert main(argv + ["--checkpoint", str(ckpt)]) == 0
    assert capsys.readouterr().out == base
    assert not ckpt.exists()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "rds", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rds ")


def test_cli_determinism_same_argv(capsys):
    code1, out1, _ = run_cli(capsys, "ratios", "--gamma-max", "65")
    code2, out2, _ = run_cli(capsys, "ratios", "--gamma-max", "65")
    assert (code1, out1) == (code2, out2)


def test_rds_workers_env_default(monkeypatch):
    monkeypatch.setenv("RDS_WORKERS", "3")
    from rds.cli import build_parser

    args = build_parser().parse_args(["search", "--n", "3", "--gamma-max", "25"])
    assert args.workers == 3
    monkeypatch.setenv("RDS_WORKERS", "junk")
    args = build_parser().parse_args(["count", "--n", "3", "--gamma-list", "25"])
    assert args.workers == 1


def test_tables_exit_code_follows_regression(capsys, monkeypatch):
    import rds.cli as cli_mod

    monkeypatch.setattr(cli_mod, "tables_regression", lambda **kw: (["[PASS] stub"], True))
    assert main(["tables"]) == 0
    monkeypatch.setattr(cli_mod, "tables_regression", lambda **kw: (["[FAIL] stub"], False))
    assert main(["tables"]) == 1
    capsys.readouterr()


def test_growth_csv(capsys):
    code, out, _ = run_cli(capsys, "growth", "--gamma-list", "25,100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,primitive_triplets,pool_size,asymptotic_reference"
    assert lines[1].startswith("25,4,17,")
    assert lines[2].startswith("100,16,65,")
