import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest

import hypident
from hypident import cli, hypergeom
from hypident.identity import IdentityPoint, VerifyReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -------------------------------------------------------------------

def test_verify_single_point_json(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--j", "1..1", "--n", "1..1", "--mode", "cross",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports == [
        {"N": 1, "j": 1, "lhs": "6", "rhs": "6", "equal": True, "micros": 0}
    ]
    assert "1/1 points verified" in err


def test_verify_plain_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--j", "1..1", "--n", "2..2")
    assert code == 0
    assert out == "j=1 N=2 lhs=16 rhs=16 equal=true\n"


def test_verify_j0_extension(capsys):
    code, out, _ = run_cli(capsys, "verify", "--j", "0..0", "--n", "5..5")
    assert code == 0
    assert out == "j=0 N=5 lhs=32 rhs=32 equal=true\n"


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--j", "1..1", "--n", "1..2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "N,j,lhs,rhs,equal,micros",
        "1,1,6,6,true,0",
        "2,1,16,16,true,0",
    ]


def test_verify_report_order_is_j_then_n(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--j", "1..3", "--n", "1..4", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert [(r["j"], r["N"]) for r in reports] == [
        (j, n) for j in range(1, 4) for n in range(1, 5)
    ]


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--j", "1..1", "--n", "1..1", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))[0]["lhs"] == "6"


def test_verify_unwritable_out_fails_before_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda config: calls.append(config) or [])
    code, out, err = run_cli(
        capsys, "verify", "--j", "1..40", "--n", "1..100", "--mode", "cross",
        "--out", str(tmp_path / "missing" / "report.txt"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert calls == []


def test_verify_non_integral_series_is_internal_error(capsys, monkeypatch):
    original = hypergeom.hyp2f1_terminating
    monkeypatch.setattr(hypergeom, "hyp2f1_terminating",
                        lambda spec: original(spec) + Fraction(1, 3))
    monkeypatch.delenv(cli.PARALLELISM_ENV, raising=False)
    code, out, err = run_cli(capsys, "verify", "--j", "1..2", "--n", "1..3",
                             "--mode", "direct")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: lhs_direct(") and err.count("\n") == 1


def test_verify_broken_pool_is_internal_error(capsys, monkeypatch):
    def broken(config):
        raise BrokenProcessPool("a worker process died")

    monkeypatch.setattr(cli, "run_sweep", broken)
    code, out, err = run_cli(capsys, "verify", "--j", "1..4", "--n", "1..10",
                             "--parallelism", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: a worker process died\n"


def test_verify_deterministic_across_parallelism(capsys):
    args = ("verify", "--j", "1..4", "--n", "1..10", "--format", "json")
    _, first, _ = run_cli(capsys, *args, "--parallelism", "1")
    _, second, _ = run_cli(capsys, *args, "--parallelism", "4")
    assert first == second


def test_verify_invalid_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--j", "5..1", "--n", "1..3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--j", "x", "--n", "1..3"])
    assert exc.value.code == 2


def test_verify_n0_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--j", "1..2", "--n", "0..3")
    assert code == 2
    assert "error:" in err


def test_verify_failing_point_exits_1(capsys, monkeypatch):
    """The sweep exit code contract: any unequal report means exit 1."""

    def rigged(point, mode="fast"):
        bad = point.N == 2
        return VerifyReport(point, 1 if bad else 6, 6, not bad, 0.0)

    monkeypatch.setattr(cli, "check_identity", rigged)
    code, out, err = run_cli(capsys, "verify", "--j", "1..1", "--n", "1..3")
    assert code == 1
    assert "FAIL j=1 N=2" in err
    assert "2/3 points verified" in err
    assert "equal=false" in out


def test_verify_timings_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--j", "10..10", "--n", "100..100", "--format", "json",
        "--mode", "cross", "--timings",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["micros"] >= 1


def test_parallelism_env_default(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda config: seen.append(config.parallelism) or [])
    monkeypatch.setenv(cli.PARALLELISM_ENV, "6")
    assert run_cli(capsys, "verify")[0] == 0
    assert run_cli(capsys, "verify", "--parallelism", "2")[0] == 0
    monkeypatch.delenv(cli.PARALLELISM_ENV)
    assert run_cli(capsys, "verify")[0] == 0
    assert seen == [6, 2, 1]
    for bad in ("bogus", "0", "-3"):
        monkeypatch.setenv(cli.PARALLELISM_ENV, bad)
        code, out, err = run_cli(capsys, "verify")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert seen == [6, 2, 1]
    # only verify reads the variable
    assert run_cli(capsys, "eval", "both", "1", "2")[0] == 0


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs cells in this process and
    records the worker count of every pool and the cancel flag of every
    shutdown."""
    log = {"started": [], "shutdowns": []}

    class FakePool:
        def __init__(self, max_workers):
            log["started"].append(max_workers)

        def map(self, fn, cells):
            return map(fn, cells)

        def shutdown(self, wait=True, *, cancel_futures=False):
            log["shutdowns"].append(cancel_futures)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    return log


def test_pool_is_capped_at_cpu_count(monkeypatch, fake_pool):
    started = fake_pool["started"]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    config = cli.SweepConfig(1, 8, 1, 4, parallelism=5000)
    reports = cli.run_sweep(config)
    assert started == [3]
    serial = cli.run_sweep(cli.SweepConfig(1, 8, 1, 4))
    assert [(r.point, r.lhs, r.rhs, r.equal) for r in reports] == [
        (r.point, r.lhs, r.rhs, r.equal) for r in serial
    ]
    assert started == [3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    cli.run_sweep(config)
    assert started == [3]


def test_interrupted_sweep_cancels_pending_cells(monkeypatch, fake_pool):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    config = cli.SweepConfig(1, 4, 1, 3, parallelism=2)
    cli.run_sweep(config)
    assert fake_pool["shutdowns"] == [True]

    def interrupted(cell):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_sweep_cell", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.run_sweep(config)
    assert fake_pool["shutdowns"] == [True, True]


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_sweep", interrupted)
    try:
        code, out, err = run_cli(capsys, "verify", "--j", "1..4", "--n", "1..10")
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


# -- eval ----------------------------------------------------------------------

def test_eval_both(capsys):
    code, out, _ = run_cli(capsys, "eval", "both", "1", "2")
    assert code == 0
    assert out == "lhs=44 rhs=44 equal=true\n"


def test_eval_single_sides(capsys):
    code, out, _ = run_cli(capsys, "eval", "rhs", "2", "1")
    assert (code, out) == (0, "16\n")
    code, out, _ = run_cli(capsys, "eval", "lhs", "1", "1")
    assert (code, out) == (0, "6\n")


def test_values_beyond_4300_digits_print(capsys):
    code, out, err = run_cli(capsys, "eval", "rhs", "15000", "0")
    assert (code, err) == (0, "")
    assert out == f"{2**15000}\n"
    code, out, _ = run_cli(capsys, "verify", "--j", "1..1", "--n", "15000..15000",
                           "--format", "csv")
    assert code == 0
    assert out.endswith(",true,0\n")


def test_eval_n0_domain_error(capsys):
    code, _, err = run_cli(capsys, "eval", "both", "0", "3")
    assert code == 2
    assert "N = 0" in err


# -- table -----------------------------------------------------------------------

def test_table_r_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "R", "--jmax", "2")
    assert code == 0
    assert out == "2,1\n12,10,1\n"


def test_table_c_base_row(capsys):
    code, out, _ = run_cli(capsys, "table", "C", "--jmax", "1")
    assert (code, out) == (0, "1,1\n")


def test_table_l_equals_table_r(capsys):
    _, l_out, _ = run_cli(capsys, "table", "L", "--jmax", "8")
    _, r_out, _ = run_cli(capsys, "table", "R", "--jmax", "8")
    assert l_out == r_out


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "C", "--jmax", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "C", "max_level": 2, "rows": [["1", "1"], ["3", "4", "1"]]}


def test_table_bad_jmax(capsys):
    code, _, err = run_cli(capsys, "table", "R", "--jmax", "0")
    assert code == 2
    assert "error:" in err


# -- mapcount ----------------------------------------------------------------------

def write_coeffs(tmp_path, text, name="coeffs.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_mapcount_stub(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    code, out, _ = run_cli(capsys, "mapcount", path, "--j", "1")
    assert (code, out) == (0, "36\n")


def test_mapcount_zero_weights(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["0", "0", "0"]}')
    code, out, _ = run_cli(capsys, "mapcount", path, "--j", "5")
    assert (code, out) == (0, "0\n")


def test_mapcount_rational_output(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1/7", "0", "0"]}')
    code, out, _ = run_cli(capsys, "mapcount", path, "--j", "1")
    assert (code, out) == (0, "36/7\n")


def test_mapcount_length_mismatch(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0"]}')
    code, _, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert code == 2
    assert "3g" in err


def test_mapcount_malformed_file(tmp_path, capsys):
    path = write_coeffs(tmp_path, "{broken")
    code, _, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert code == 2
    assert "JSON" in err


def test_mapcount_deeply_nested_file(tmp_path, capsys):
    path = write_coeffs(tmp_path, "[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_mapcount_missing_file(capsys):
    code, _, err = run_cli(capsys, "mapcount", "/nonexistent/coeffs.json", "--j", "1")
    assert code == 2
    assert "error:" in err


# -- entry points ------------------------------------------------------------------

def test_python_m_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "hypident", "eval", "both", "1", "1"],
        capture_output=True,
        text=True,
        # the child imports the same hypident as this test, installed or not
        env={**os.environ, "PYTHONPATH": str(Path(hypident.__file__).parents[1])},
    )
    assert proc.returncode == 0
    assert proc.stdout == "lhs=6 rhs=6 equal=true\n"
