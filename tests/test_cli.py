import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from macwiretap.cli import main
from macwiretap.optimizer import PowerAllocation

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIG = ROOT / "scripts" / "example_scenario.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_standardize_inline_identity(capsys):
    env = run_json(
        capsys,
        "standardize",
        "--gains-main", "1,1",
        "--gains-tap", "1,1",
        "--noise-main", "1",
        "--noise-tap", "1",
        "--power-limits", "5,5",
    )
    assert env["command"] == "standardize"
    assert env["result"]["standard_channel"]["h"] == [1.0, 1.0]
    assert env["result"]["standard_channel"]["pmax"] == [5.0, 5.0]
    assert env["result"]["degradedness"]["is_degraded"] is False


def test_standardize_config_file(capsys, tmp_path):
    cfg = tmp_path / "chan.json"
    cfg.write_text(
        json.dumps(
            {
                "num_users": 2,
                "gains_main": [4, 1],
                "gains_tap": [1, 1],
                "noise_var_main": 2,
                "noise_var_tap": 1,
                "power_limits": [1, 1],
            }
        )
    )
    env = run_json(capsys, "standardize", "--config", str(cfg))
    assert env["result"]["standard_channel"]["h"] == [0.5, 2.0]
    assert env["result"]["standard_channel"]["pmax"] == [2.0, 0.5]


def test_standardize_degraded_reports_common_gain(capsys):
    env = run_json(
        capsys,
        "standardize",
        "--gains-main", "2,2",
        "--gains-tap", "1,1",
        "--noise-main", "1",
        "--noise-tap", "1",
        "--power-limits", "5,5",
    )
    deg = env["result"]["degradedness"]
    assert deg["is_degraded"] is True
    assert deg["common_h"] == 0.5


def test_standardize_malformed_json_exits_2(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, out, err = run_cli(capsys, "standardize", "--config", str(cfg))
    assert code == 2
    assert "error" in err


def test_standardize_loose_config_values_exit_2(capsys, tmp_path):
    base = {
        "num_users": 2, "gains_main": [4, 1], "gains_tap": [1, 1],
        "noise_var_main": 2, "noise_var_tap": 1, "power_limits": [1, 1],
    }
    cases = [("gains_main", "12"), ("num_users", True), ("num_users", 2.7), ("noise_var_main", "x")]
    for key, value in cases:
        cfg = tmp_path / "chan.json"
        cfg.write_text(json.dumps({**base, key: value}))
        code, out, err = run_cli(capsys, "standardize", "--config", str(cfg))
        assert (code, out) == (2, ""), (key, value)
        assert err.startswith(f"error: {key} "), (key, err)


def test_standardize_missing_inputs_exits_2(capsys):
    code, _, err = run_cli(capsys, "standardize", "--gains-main", "1,1")
    assert code == 2
    assert "error" in err


def test_region_boundary_json(capsys):
    env = run_json(
        capsys, "region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2", "--res", "50"
    )
    expected = math.log2(5.0 / 3.0) / 2.0
    assert env["result"]["boundary"]["max_sum"] == pytest.approx(expected, abs=1e-6)


def test_region_boundary_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2",
        "--res", "30", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R1,R2"
    assert len(lines) >= 2


def test_region_delta_doubles_secrecy_intercepts(capsys):
    base = run_json(
        capsys, "region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2",
        "--res", "40", "--delta", "1",
    )
    halved = run_json(
        capsys, "region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2",
        "--res", "40", "--delta", "0.5",
    )
    # MAC rows are slack here, so the secrecy-driven intercepts double
    assert halved["result"]["boundary"]["max_sum"] == pytest.approx(
        2.0 * base["result"]["boundary"]["max_sum"], rel=1e-9
    )


def test_region_fixed_power_constraint_set(capsys):
    env = run_json(
        capsys, "region", "--kind", "individual", "--h", "0.5,0.5", "--pmax", "2,2",
        "--power", "2,2",
    )
    rows = env["result"]["constraint_set"]["rows"]
    assert len(rows) == 6
    labels = [r["label"] for r in rows]
    assert labels[0] == "SECRECY{1}"
    by_label = {r["label"]: r["rhs"] for r in rows}
    assert by_label["SECRECY{1,2}"] == pytest.approx(math.log2(5.0) / 2.0 - 1.0, abs=1e-9)


def test_region_outer_non_degraded_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "region", "--kind", "outer-collective", "--h", "0.5,2", "--pmax", "2,2"
    )
    assert code == 2
    assert "degraded" in err


def test_region_csv_with_power_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2",
        "--power", "1,1", "--format", "csv",
    )
    assert code == 2


def test_sumopt_silence_case(capsys):
    env = run_json(capsys, "sumopt", "--h", "1.2,1.5", "--pmax", "10,10")
    alloc = env["result"]["allocation"]
    assert alloc["p"] == [0.0, 0.0]
    assert alloc["case"] == "NONE"


def test_jam_pinned_with_verify(capsys):
    env = run_json(capsys, "jam", "--h", "0.5,2", "--pmax", "10,10", "--verify")
    alloc = env["result"]["allocation"]
    assert alloc["p"] == [10.0, 1.0]
    assert alloc["achieved_rate"] == pytest.approx(0.584962500721, abs=1e-9)
    assert env["result"]["verify_gap"] <= 1e-6
    assert "capacity_expr_rate" in alloc


def test_jam_verify_handles_both_transmit_fallback(capsys):
    # below the sum-rate threshold the jam solver answers the sum problem;
    # the self-check must use the matching oracle
    env = run_json(capsys, "jam", "--h", "0.25,0.3", "--pmax", "10,10", "--verify")
    assert env["result"]["allocation"]["case"] == "BOTH_TRANSMIT"
    assert env["result"]["oracle_objective"] == "SUM"
    assert env["result"]["verify_gap"] <= 1e-6


def test_verify_failure_exits_3(capsys, monkeypatch):
    def bogus_oracle(objective, gains, pmax, resolution=201, refine_points=None):
        return PowerAllocation(p=(0.0, 0.0), case_label="NONE", achieved_rate=1.0)

    monkeypatch.setattr("macwiretap.cli.grid_oracle", bogus_oracle)
    code, out, _ = run_cli(capsys, "jam", "--h", "0.5,2", "--pmax", "10,10", "--verify")
    assert code == 3
    env = json.loads(out)
    assert env["result"]["verify_gap"] > 1e-6


def test_tdma_command(capsys):
    env = run_json(
        capsys, "tdma", "--h", "0.5,0.5", "--pmax", "2,4", "--power", "1,3"
    )
    assert env["result"]["optimal_alpha"] == [0.25, 0.75]
    rows = {r["label"]: r["rhs"] for r in env["result"]["region"]["rows"]}
    assert rows["SECRECY{1}"] > 0.0


def test_split_command(capsys):
    rhs = math.log2(5.0 / 3.0) / 2.0
    env = run_json(
        capsys,
        "split", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2",
        "--power", "2,2", "--secret", f"{rhs - 1e-12},0",
    )
    assert env["result"]["feasible"] is True
    assert env["result"]["extra"][1] == pytest.approx(math.log2(3.0) / 2.0, abs=1e-6)

    env = run_json(
        capsys,
        "split", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2",
        "--power", "2,2", "--secret", "0.37,0",
    )
    assert env["result"]["feasible"] is False
    assert env["result"]["binding"] == "MAC{1,2}"


def test_scenario_command_with_out(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    data = json.loads(EXAMPLE_CONFIG.read_text())
    data["grid"] = [6, 5]
    cfg.write_text(json.dumps(data))
    out_csv = tmp_path / "cells.csv"
    env = run_json(capsys, "scenario", "--config", str(cfg), "--out", str(out_csv))
    assert env["result"]["cells"] == 30
    assert env["result"]["zero_rate_cells_jam"] <= env["result"]["zero_rate_cells_nojam"]
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "x,y,P1,P2,sumrate_jam,sumrate_nojam,case"
    assert len(lines) == 31


def test_scenario_command_stdout(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    data = json.loads(EXAMPLE_CONFIG.read_text())
    data["grid"] = [3, 3]
    cfg.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "scenario", "--config", str(cfg))
    assert code == 0
    assert out.startswith("x,y,P1,P2,")
    summary = json.loads(err)
    assert summary["result"]["cells"] == 9


def test_scenario_bad_config_exits_2(capsys, tmp_path):
    cases = [
        ("users", [[20.0, 35.0]]),
        ("grid", [24, 24, 24]),
        ("grid", "24"),
        ("area", [100.0, 100.0, 100.0]),
        ("noise_var_main", "loud"),
        ("noise_var_tap", "quiet"),
        ("pathloss_exponent", "steep"),
        ("min_distance", "near"),
        ("power_limits", "ab"),
        ("grid", [24.7, 3.2]),
        ("grid", [True, 2]),
    ]
    for key, value in cases:
        cfg = tmp_path / f"{key}.json"
        data = json.loads(EXAMPLE_CONFIG.read_text())
        data[key] = value
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "scenario", "--config", str(cfg))
        assert code == 2, (key, value)
        assert err.startswith("error: ") and key in err, (key, err)


def test_scenario_edge_configs_keep_their_scalar_outcome(capsys, tmp_path):
    # numeric extremes on a 6x6 grid: each keeps the exit code and the
    # stderr line (or the CSV) that the per-cell scalar sweep produced, and
    # none lets a RuntimeWarning through to stderr
    cases = [
        ({"pathloss_exponent": 300}, 2,
         "error: cell (8.33333, 8.33333): gains_main must be strictly positive, got (0.0, 0.0)\n"),
        ({"pathloss_exponent": 150, "noise_var_tap": 1e-10}, 2,
         "error: cell (25, 75): powers entries must be finite and nonnegative, "
         "got (8.74403861447459e-226, inf)\n"),
        ({"power_limits": [1e300, 1e300]}, 0,
         "292aa1f0ecc91c5d4a24e46dbb5f725195cf8538987c61df9b4fc2d27e01d207"),
        # the cell centre (i + 0.5) * width / nx overflows
        ({"area": [1.7e308, 1.7e308], "grid": [2, 2]}, 2,
         "error: cell (inf, 4.25e+307): eaves_pos must be finite, got (inf, 4.25e+307)\n"),
        # a user at the base station: min_distance ** -2 overflows
        ({"users": [[50.0, 50.0], [25.0, 70.0]], "min_distance": 1e-200}, 2,
         "error: cell (8.33333, 8.33333): path-loss gain max(distance, min_distance) "
         "** -pathloss_exponent overflows: distance 0.0, min_distance 1e-200, "
         "pathloss_exponent 2.0\n"),
        # gains_main * noise_var_tap underflows to zero
        ({"pathloss_exponent": 155, "noise_var_tap": 1e-147}, 2,
         "error: cell (8.33333, 8.33333): gains_main (3.4330451120721237e-237, "
         "4.665524046260508e-234) times noise_var_tap 1e-147 underflows to zero, "
         "so h is undefined\n"),
    ]
    for k, (overrides, code, expected) in enumerate(cases):
        data = json.loads(EXAMPLE_CONFIG.read_text())
        data.update({"grid": [6, 6], **overrides})
        cfg = tmp_path / f"edge{k}.json"
        cfg.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(capsys, "scenario", "--config", str(cfg))
        assert got == code, (overrides, err)
        if code:
            assert (out, err) == ("", expected)
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == expected
            assert json.loads(err)["result"]["cells"] == 36
            p2 = float(out.splitlines()[1].split(",")[3])
            assert p2 == pytest.approx(9.756e296, rel=1e-4)


def test_overflowing_powers_exit_2_and_never_warn(capsys):
    # a power sum beyond the float range makes a rate bound infinite: the
    # boundary names pmax, a constraint set names the powers
    cases = [
        (["region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "1e308,1e308",
          "--res", "11"], "pmax"),
        (["region", "--kind", "individual", "--h", "2,3", "--pmax", "1e308,1e308",
          "--res", "11", "--format", "csv"], "pmax"),
        # the time-share grid boosts a user's power by up to res - 1
        (["region", "--kind", "union-i-t", "--h", "0,0", "--pmax", "1e307,1e307",
          "--res", "11"], "pmax"),
        (["region", "--kind", "individual", "--h", "0.5,0.5", "--pmax", "1e308,1e308",
          "--power", "1e308,1e308"], "powers"),
        (["tdma", "--h", "0.5,0.5", "--pmax", "1e10,1e10", "--power", "1e10,1e10",
          "--alpha", "1e-320,1"], "powers"),
        # the default time shares are proportional to the powers
        (["tdma", "--h", "0.5,0.5", "--pmax", "1e308,1e308", "--power", "1e308,1e308"], "powers"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, name in cases:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {name} ") and "overflows" in err, err
        # below the overflow the boundary holds the true secrecy sum, g(1)
        env = run_json(capsys, "region", "--kind", "collective", "--h", "0.5,0.5",
                       "--pmax", "1e307,1e307", "--res", "11")
        assert env["result"]["boundary"]["max_sum"] == pytest.approx(0.5, abs=1e-9)
        # a gain-times-power overflow only clamps the secrecy bound to zero
        env = run_json(capsys, "region", "--kind", "collective", "--h", "1e300,1e300",
                       "--pmax", "1e200,1e200", "--power", "1e200,1e200")
        rows = {r["label"]: r["rhs"] for r in env["result"]["constraint_set"]["rows"]}
        assert rows["SECRECY{1,2}"] == 0.0
        assert rows["MAC{1,2}"] == pytest.approx(332.7, abs=0.1)


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "jam", "--h", "0.5,2", "--pmax", "10,10")
    _, out2, _ = run_cli(capsys, "jam", "--h", "0.5,2", "--pmax", "10,10")
    assert out1 == out2


def test_inputs_echo_reproduces_result(capsys):
    env = run_json(capsys, "jam", "--h", "0.5,2", "--pmax", "10,10")
    echo = env["inputs_echo"]
    argv = [
        "jam",
        "--h", ",".join(str(v) for v in echo["h"]),
        "--pmax", ",".join(str(v) for v in echo["pmax"]),
    ]
    again = run_json(capsys, *argv)
    assert json.dumps(again["result"], sort_keys=True) == json.dumps(
        env["result"], sort_keys=True
    )


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jam", "--nope"])
    assert exc.value.code == 2


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: no subcommand may import it
    cfg = tmp_path / "scenario.json"
    data = json.loads(EXAMPLE_CONFIG.read_text())
    data["grid"] = [3, 3]
    cfg.write_text(json.dumps(data))
    six = ",".join(["2"] * 6)
    calls = [
        ["standardize", "--gains-main", "4,1", "--gains-tap", "1,1", "--noise-main", "2",
         "--noise-tap", "1", "--power-limits", "1,1"],
        ["region", "--kind", "union-i-t", "--h", "0.5,0.5", "--pmax", "2,2", "--res", "11"],
        ["region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2", "--power", "2,2"],
        ["sumopt", "--h", "0.25,0.3", "--pmax", "10,10", "--verify", "--res", "21"],
        ["jam", "--h", "0.5,2", "--pmax", "10,10", "--verify", "--res", "21"],
        ["tdma", "--h", "0.5,0.5", "--pmax", "2,4", "--power", "1,3"],
        ["split", "--kind", "individual", "--h", "0.5,0.5", "--pmax", "2,2",
         "--power", "2,2", "--secret", "0.16,0"],
        ["split", "--kind", "collective", "--h", "0.1,0.2,0.3,0.4,0.5,0.6", "--pmax", six,
         "--power", six, "--secret", "0.05,0.05,0.05,0.05,0.05,0.05"],
        ["scenario", "--config", str(cfg), "--out", str(tmp_path / "cells.csv")],
    ]
    script = (
        "import json, sys\n"
        "from macwiretap.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'scipy' in sys.modules]), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, scipy_loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert codes == [0] * len(calls)
    assert not scipy_loaded
