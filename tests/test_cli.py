import json

import pytest

from lucascong import cli
from lucascong.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_cell(monkeypatch):
    def fail(cell):
        raise AssertionError("a scan cell ran")
    monkeypatch.setattr(cli, "_scan_cell", fail)


# One example per report status: its verdict fields and exit code, as in the
# table of the cli module docstring.
@pytest.mark.parametrize("argv, holds, trivial, degenerate, extra, code", [
    pytest.param(["verify", "--A", "1", "--B", "-1", "--n", "7"],
                 True, False, False, {}, 0, id="holds"),
    pytest.param(["verify", "--A", "1", "--B", "-1", "--n", "6"],
                 True, True, False, {}, 0, id="trivial"),
    pytest.param(["wolstenholme", "--p", "3"],
                 False, False, False, {}, 1, id="fails"),
    pytest.param(["kw", "--A", "1", "--B", "-1", "--p", "5"],
                 False, False, False, {"applicable": False}, 0, id="not-applicable"),
    pytest.param(["verify", "--A", "2", "--B", "2", "--n", "4"],
                 False, False, True, {}, 2, id="degenerate"),
    pytest.param(["verify", "--A", "-8", "--B", "-8", "--n", "2"],
                 False, False, False,
                 {"error": "NotInvertible: 32 is not invertible modulo 64"}, 2, id="error"),
])
def test_status_fields_and_exit_code(capsys, argv, holds, trivial, degenerate,
                                     extra, code):
    got, out, _ = invoke(capsys, *argv)
    rec = json.loads(out)
    assert (rec["holds"], rec["trivial"], rec["degenerate"]) == (holds, trivial, degenerate)
    assert {k: rec[k] for k in ("applicable", "error") if k in rec} == extra
    assert got == code


class TestVerify:
    def test_holds(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--A", "1", "--B", "-1", "--n", "7")
        rec = json.loads(out)
        assert code == 0
        assert rec["lhs"] == rec["rhs"] == "117"
        assert rec["modulus"] == "169" and rec["holds"] is True
        assert rec["kind"] == "theorem"

    def test_trivial(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--A", "1", "--B", "-1", "--n", "6")
        rec = json.loads(out)
        assert code == 0 and rec["trivial"] is True

    def test_invalid_a(self, capsys):
        code, _, err = invoke(capsys, "verify", "--A", "0", "--B", "1", "--n", "5")
        assert code == 2 and "nonzero" in err

    def test_degenerate_exits_2(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--A", "2", "--B", "2", "--n", "4")
        assert code == 2
        assert json.loads(out)["degenerate"] is True

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["verify", "--A", "1"])
        assert exc_info.value.code == 2

    def test_deterministic(self, capsys):
        _, out1, _ = invoke(capsys, "verify", "--A", "3", "--B", "-2", "--n", "11")
        _, out2, _ = invoke(capsys, "verify", "--A", "3", "--B", "-2", "--n", "11")
        assert out1 == out2

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--A", "1", "--B", "-1",
                              "--n", "7", "--csv")
        header, row = out.strip().split("\n")
        assert header.startswith("A,B,n,w,modulus,lhs,rhs")
        assert row == "1,-1,7,13,169,117,117,true,false,false,theorem"


class TestScan:
    def test_small_box(self, capsys):
        code, out, _ = invoke(capsys, "scan", "--a-min", "-3", "--a-max", "3",
                              "--b-min", "-3", "--b-max", "3",
                              "--n-min", "5", "--n-max", "30")
        assert code == 0
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        assert summary["kind"] == "summary"
        assert summary["violations"] == 0
        assert summary["total"] == 36 * 26
        assert summary["total"] == len(lines) - 1

    def test_canonical_order_and_parallel_determinism(self, capsys):
        args = ["scan", "--a-min", "1", "--a-max", "2", "--b-min", "-2",
                "--b-max", "2", "--n-min", "5", "--n-max", "12"]
        _, seq_out, _ = invoke(capsys, *args)
        _, par_out, _ = invoke(capsys, *args, "--jobs", "4")
        assert seq_out == par_out
        keys = [(int(r["A"]), int(r["B"]), int(r["n"]))
                for r in map(json.loads, seq_out.strip().split("\n")[:-1])]
        assert keys == sorted(keys)

    def test_single_cell_matches_verify(self, capsys):
        _, verify_out, _ = invoke(capsys, "verify", "--A", "1", "--B", "-1",
                                  "--n", "7")
        _, scan_out, _ = invoke(capsys, "scan", "--a-min", "1", "--a-max", "1",
                                "--b-min", "-1", "--b-max", "-1",
                                "--n-min", "7", "--n-max", "7")
        assert scan_out.strip().split("\n")[0] == verify_out.strip()

    def test_empty_n_range(self, capsys):
        code, _, err = invoke(capsys, "scan", "--a-min", "1", "--a-max", "1",
                              "--b-min", "1", "--b-max", "1",
                              "--n-min", "9", "--n-max", "5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, capsys, no_cell, jobs):
        code, _, err = invoke(capsys, "scan", "--a-min", "1", "--a-max", "1",
                              "--b-min", "1", "--b-max", "1",
                              "--n-min", "5", "--n-max", "6", "--jobs", jobs)
        assert code == 2 and "--jobs" in err

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        args = ["scan", "--a-min", "1", "--a-max", "2", "--b-min", "-1",
                "--b-max", "1", "--n-min", "5", "--n-max", "8", "--jobs"]
        _, serial, _ = invoke(capsys, *args, "1")
        for jobs in ("2", "1000"):
            assert invoke(capsys, *args, jobs) == (0, serial, "")
        assert workers == [2, 3]

    def test_streams_each_cell(self, capsys, monkeypatch):
        scan_cell, before = cli._scan_cell, []

        def spy(cell):
            before.append(capsys.readouterr().out)
            return scan_cell(cell)
        monkeypatch.setattr(cli, "_scan_cell", spy)
        code, _, _ = invoke(capsys, "scan", "--a-min", "1", "--a-max", "2",
                            "--b-min", "-1", "--b-max", "-1",
                            "--n-min", "5", "--n-max", "7", "--jobs", "1")
        assert code == 0 and before[0] == ""
        assert [(r["A"], r["n"]) for r in map(json.loads, before[1].splitlines())] == [
            ("1", "5"), ("1", "6"), ("1", "7")]

    def test_error_records_count_only_in_total(self, capsys):
        code, out, _ = invoke(capsys, "scan", "--a-min", "-8", "--a-max", "-8",
                              "--b-min", "-8", "--b-max", "-8",
                              "--n-min", "1", "--n-max", "6")
        lines = [json.loads(l) for l in out.strip().split("\n")]
        assert [r["n"] for r in lines[:-1] if "error" in r] == ["2", "3"]
        assert lines[-1] == {"kind": "summary", "total": 6, "holds": 4,
                             "trivial": 1, "degenerate": 0, "violations": 0}
        assert code == 0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "reports.jsonl"
        code, out, _ = invoke(capsys, "scan", "--a-min", "1", "--a-max", "1",
                              "--b-min", "-1", "--b-max", "-1",
                              "--n-min", "5", "--n-max", "8",
                              "--out", str(path))
        assert code == 0 and out == ""
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5  # 4 records + summary

    def test_unwritable_out_fails_before_any_cell(self, capsys, no_cell, tmp_path):
        path = tmp_path / "missing" / "reports.jsonl"
        code, out, err = invoke(capsys, "scan", "--a-min", "1", "--a-max", "1",
                                "--b-min", "-1", "--b-max", "-1",
                                "--n-min", "5", "--n-max", "8",
                                "--out", str(path))
        assert code == 2 and out == "" and "error" in err


class TestSmallCommands:
    def test_wn(self, capsys):
        code, out, _ = invoke(capsys, "wn", "--A", "1", "--B", "-1", "--n", "10")
        assert code == 0 and out.strip() == "11"

    def test_rank(self, capsys):
        code, out, _ = invoke(capsys, "rank", "--A", "1", "--B", "-1", "--p", "13")
        assert code == 0 and out.strip() == "7"

    def test_rank_none(self, capsys):
        code, out, _ = invoke(capsys, "rank", "--A", "1", "--B", "5", "--p", "5")
        assert code == 0 and out.strip() == "none"

    def test_fib(self, capsys):
        code, out, _ = invoke(capsys, "fib", "--p", "13")
        rec = json.loads(out)
        assert code == 0 and rec["holds"] and rec["modulus"] == "169"
        assert rec["kind"] == "corollary"

    def test_kw(self, capsys):
        code, out, _ = invoke(capsys, "kw", "--A", "2", "--B", "1", "--p", "5")
        rec = json.loads(out)
        assert code == 0 and rec["holds"] and rec["kind"] == "kimball-webb"

    def test_kw_not_applicable(self, capsys):
        code, out, _ = invoke(capsys, "kw", "--A", "1", "--B", "-1", "--p", "5")
        rec = json.loads(out)
        assert code == 0 and rec["applicable"] is False

    def test_wolstenholme(self, capsys):
        code, out, _ = invoke(capsys, "wolstenholme", "--p", "5")
        assert code == 0 and json.loads(out)["holds"]

    def test_qcheck(self, capsys):
        code, out, _ = invoke(capsys, "qcheck", "--n", "2")
        assert code == 0
        assert json.loads(out) == ["9", "-3"]

    def test_qscan(self, capsys):
        code, out, _ = invoke(capsys, "qscan", "--n-max", "8")
        lines = [json.loads(l) for l in out.strip().split("\n")]
        assert code == 0
        assert lines[-1] == {"kind": "summary", "total": 8, "failures": 0}
        assert all(r["holds"] for r in lines[:-1])
