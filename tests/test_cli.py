import json
import os
import subprocess
import sys

import pytest

from airypng.cli import main, parse_grid, EXIT_USAGE, EXIT_DATA

from conftest import child_env


def run_cli(args, tmp_path, env_extra=None):
    env = child_env(**(env_extra or {}))
    env.setdefault("AIRYPNG_THREADS", "1")
    return subprocess.run([sys.executable, "-m", "airypng.cli", *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env)


def test_parse_grid_inclusive_endpoints():
    grid = parse_grid("-2:2:0.5")
    assert grid[0] == -2.0 and grid[-1] == 2.0 and len(grid) == 9


def test_kernel_grid_csv(tmp_path):
    res = run_cli(["kernel", "--s", "0", "--t", "0", "--x-grid", "-2:2:0.5",
                   "--y", "0"], tmp_path)
    assert res.returncode == 0
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert lines[0].startswith("# invocation: airypng kernel")
    assert lines[1].startswith("# seed:")
    assert lines[2].startswith("# version:")
    assert lines[3] == "s,t,x,y,value"
    assert len(lines) == 4 + 9


def test_missing_required_flag_names_it(tmp_path):
    res = run_cli(["tw2"], tmp_path)
    assert res.returncode == EXIT_USAGE
    assert "--s-grid" in res.stderr


def test_unknown_flag_usage_error(tmp_path):
    res = run_cli(["tw2", "--s-grid", "0:1:1", "--bogus"], tmp_path)
    assert res.returncode == EXIT_USAGE


@pytest.mark.parametrize("args", [
    ["tw2", "--s-grid", "1:0:0.1"],
    ["tw2", "--s-grid", "0:1"],
    ["tw2", "--s-grid", "nan:1:0.1"],
    ["gap", "--times", "0,,1", "--thresholds", "0,0"],
    ["conditional", "--p1", "-1", "--epsilons", "0.2", "--windows", "1"],
    ["kernel", "--s", "nan", "--x-grid", "0:1:0.5"],
    ["conditional", "--p1", "nan", "--epsilons", "0.1"],
    ["conditional", "--p1", "-1", "--epsilons", "0.1", "--s-gaps", "0"],
    ["conditional", "--p1", "-1", "--epsilons", "0.1", "--s-gaps", "-1"],
    ["conditional", "--p1", "-1", "--epsilons", "0.1", "--s-gaps", "1,1"],
    ["verify", "png-brownian", "--size", "0"],
    ["gap", "--times", "0", "--thresholds", "0", "--cutoff", "nan"],
    ["kernel", "--okounkov-check", "--alpha", "nan"],
])
def test_malformed_grid_list_and_window_are_usage_errors(tmp_path, args):
    res = run_cli(args, tmp_path)
    assert res.returncode == EXIT_USAGE
    assert "usage error" in res.stderr
    assert "Traceback" not in res.stderr


def test_okounkov_check(tmp_path):
    res = run_cli(["kernel", "--okounkov-check", "--alpha", "0.5"], tmp_path)
    assert res.returncode == 0
    assert "max |residual|" in res.stdout
    rows = (tmp_path / "okounkov.csv").read_text().splitlines()[4:]
    assert len(rows) == 25
    assert max(float(r.split(",")[-1]) for r in rows) <= 1e-8


def test_tw2_monotone_column(tmp_path):
    res = run_cli(["tw2", "--s-grid", "-3:1:0.5", "--plot", "tw2.svg"],
                  tmp_path)
    assert res.returncode == 0
    rows = (tmp_path / "tw2.csv").read_text().splitlines()[4:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    svg = (tmp_path / "tw2.svg").read_text()
    assert svg.startswith("<?xml") and "<polyline" in svg


def test_gap_value(tmp_path):
    res = run_cli(["gap", "--times", "0,0.5", "--thresholds", "0,0"],
                  tmp_path)
    assert res.returncode == 0
    val = float(res.stdout.split("=")[1])
    assert 0.0 < val < 1.0
    # regression pin from the converged engine
    assert val == pytest.approx(0.9476496065448, abs=1e-9)


def test_conditional_trend_table(tmp_path):
    res = run_cli(["conditional", "--p1", "-1.0", "--epsilons", "0.2,0.1",
                   "--windows", "-1:1"], tmp_path)
    assert res.returncode == 0
    rows = (tmp_path / "conditional.csv").read_text().splitlines()[4:]
    assert len(rows) == 2
    errs = [float(r.split(",")[3]) for r in rows]
    assert errs[1] <= errs[0] * 1.2


def test_conditioning_width_flag_is_gone(tmp_path):
    # removed flags are usage errors: conditioning on A(t_1) = p1 is exact,
    # so there is no window width to set, and every F2 value is certified,
    # so there is no unchecked fast path
    width = ["--p1", "-1.0", "--epsilons", "0.2", "--delta1", "0.02"]
    for args, flag in ((["conditional", *width], "--delta1"),
                       (["verify", "airy-brownian", *width], "--delta1"),
                       (["tw2", "--s-grid", "0:0:1", "--fast"], "--fast")):
        res = run_cli(args, tmp_path)
        assert res.returncode == EXIT_USAGE
        assert flag in res.stderr


def test_numeric_failure_exit_code(tmp_path):
    from airypng.cli import EXIT_NUMERIC
    res = run_cli(["gap", "--times", "0", "--thresholds", "-2",
                   "--nodes", "16", "--cutoff", "8"], tmp_path)
    assert res.returncode == EXIT_NUMERIC
    assert "numeric failure" in res.stderr


def test_png_coupling_check_n_alias(tmp_path):
    res = run_cli(["png", "--coupling-check", "--n", "10", "--seeds", "5"],
                  tmp_path)
    assert res.returncode == 0
    assert "5/5 exact" in res.stdout


def test_png_coupling_check(tmp_path):
    res = run_cli(["png", "--coupling-check", "--size", "30",
                   "--seeds", "25"], tmp_path)
    assert res.returncode == 0
    assert "25/25 exact" in res.stdout


def test_png_coupling_check_rejects_q_outside_unit_interval(tmp_path):
    from airypng.cli import EXIT_USAGE
    res = run_cli(["png", "--coupling-check", "--q", "1.0", "--size", "3",
                   "--seeds", "2"], tmp_path)
    assert res.returncode == EXIT_USAGE
    assert "q must lie in (0, 1)" in res.stderr


def test_png_profile_dump(tmp_path):
    res = run_cli(["png", "--q", "0.25", "--n-steps", "15"], tmp_path)
    assert res.returncode == 0
    rows = (tmp_path / "heights.csv").read_text().splitlines()[4:]
    assert len(rows) == 31


def test_png_h_samples(tmp_path):
    res = run_cli(["png", "--sample-h", "--size", "8", "--replicas", "3",
                   "--t-grid", "0:0.5:0.5"], tmp_path)
    assert res.returncode == 0
    rows = (tmp_path / "h_samples.csv").read_text().splitlines()[4:]
    assert len(rows) == 6


def test_png_kernel_n1(tmp_path):
    res = run_cli(["png-kernel", "--n1-exact", "--q", "0.25"], tmp_path)
    assert res.returncode == 0
    rows = (tmp_path / "n1_exact.csv").read_text().splitlines()[4:]
    assert max(float(r.split(",")[-1]) for r in rows) <= 1e-9


def test_png_kernel_airy_limit(tmp_path):
    res = run_cli(["png-kernel", "--airy-limit", "--q", "0.25",
                   "--n-list", "16,32"], tmp_path)
    assert res.returncode == 0
    rows = (tmp_path / "airy_limit.csv").read_text().splitlines()[4:]
    assert len(rows) == 2


PLAN = {"q": 0.25, "N": 32, "gamma": 1.0 / 3.0, "tau1": 0.0,
        "s_gaps": [1.0], "windows": [[-1.0, 1.0]], "replicas": 20000,
        "master_seed": 777, "pilot_replicas": 4000}


def test_verify_png_brownian_outputs(tmp_path):
    (tmp_path / "plan.json").write_text(json.dumps(PLAN))
    res = run_cli(["verify", "png-brownian", "--config", "plan.json"],
                  tmp_path)
    assert res.returncode == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"config", "environment", "lattice", "results",
                        "timing"}
    assert doc["results"]["conditioned_count"] >= 500
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.svg").exists()


def test_verify_insufficient_data_exit_code(tmp_path):
    plan = dict(PLAN, j1_override=10 ** 6)
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    res = run_cli(["verify", "png-brownian", "--config", "plan.json"],
                  tmp_path)
    assert res.returncode == EXIT_DATA
    assert "insufficient" in res.stderr.lower()


def test_verify_airy_brownian(tmp_path):
    res = run_cli(["verify", "airy-brownian", "--p1", "-1.0",
                   "--epsilons", "0.2,0.1", "--windows", "-1:1"], tmp_path)
    assert res.returncode == 0
    doc = json.loads((tmp_path / "airy_trend.json").read_text())
    assert doc["trend_ok"] is True


def test_identical_invocation_byte_identical_csv(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    run_cli(["tw2", "--s-grid", "-1:1:0.5"], a)
    run_cli(["tw2", "--s-grid", "-1:1:0.5"], b)
    assert (a / "tw2.csv").read_bytes() == (b / "tw2.csv").read_bytes()


def test_float_format_17_digits(tmp_path):
    run_cli(["tw2", "--s-grid", "0:0:1"], tmp_path)
    row = (tmp_path / "tw2.csv").read_text().splitlines()[4]
    value = row.split(",")[1]
    assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_main_inprocess_exit_codes(tmp_path):
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["png", "--coupling-check", "--size", "5",
                     "--seeds", "2"]) == 0
    finally:
        os.chdir(old)


@pytest.mark.parametrize("args, env", [
    (["tw2", "--s-grid", "0:0:1"], {"AIRYPNG_THREADS": "abc"}),
    (["--threads", "-2", "tw2", "--s-grid", "0:0:1"], {}),
])
def test_bad_worker_count_is_a_usage_error(tmp_path, args, env):
    res = run_cli(args, tmp_path, env)
    assert res.returncode == EXIT_USAGE
    assert "usage error" in res.stderr
    assert "Traceback" not in res.stderr
