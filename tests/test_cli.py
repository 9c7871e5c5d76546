import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_envelope import _round12, envelope_text

import macwiretap as mw
from macwiretap.cli import MAX_GRID_RES, _emit, _float_text, _parse_args, _table_parse, build_parser, main
from macwiretap.optimizer import MIN_ORACLE_RESOLUTION, PowerAllocation

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIG = ROOT / "scripts" / "example_scenario.json"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors exit from inside main
        code = exc.code
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


@pytest.mark.parametrize("gains_main, gains_tap, noise_main, message", [
    ("1e200,1", "1,1", "1e-200",
     "gains_main (1e+200, 1.0) over noise_var_main 1e-200 times power_limits (1.0, 1.0) "
     "overflows the float range, so pmax is undefined"),
    ("1e-200,1", "1e200,1", "1",
     "gains_tap (1e+200, 1.0) times noise_var_main 1.0 over gains_main (1e-200, 1.0) times "
     "noise_var_tap 1.0 overflows the float range, so h is undefined"),
], ids=["pmax", "h"])
def test_standardize_overflow_names_the_inputs(capsys, gains_main, gains_tap, noise_main, message):
    # the overflowing h or pmax is computed, not given: the message names
    # the inputs it came from
    assert run_cli(capsys, "standardize", "--gains-main", gains_main, "--gains-tap", gains_tap,
                   "--noise-main", noise_main, "--noise-tap", "1", "--power-limits", "1,1") == (
        2, "", f"error: {message}\n")


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


def test_constraint_sets_match_the_library(capsys):
    # every fixed-power set the CLI prints, of every kind, K = 1..5, with
    # and without --delta, is the library's set rounded to 12 digits
    rng = random.Random(4127)
    library = {
        "individual": mw.individual_region_at,
        "collective": mw.collective_region_at,
        "outer-individual": lambda std, p: mw.outer_region_at(std, p, "INDIVIDUAL"),
        "outer-collective": lambda std, p: mw.outer_region_at(std, p, "COLLECTIVE"),
        "tdma": lambda std, p: mw.tdma_region_at(std, p, mw.tdma_optimal_alpha(p)),
    }
    for k in range(1, 6):
        for kind, build in library.items():
            h = [rng.uniform(0.05, 0.95)] * k if kind.startswith("outer") else [
                rng.uniform(0.0, 2.0) for _ in range(k)]
            pmax = [rng.uniform(0.5, 20.0) for _ in range(k)]
            power = [rng.uniform(0.1, 1.0) * m for m in pmax]
            std = mw.StandardChannel(k, h, pmax)
            for delta in (None, rng.uniform(0.1, 1.0)):
                flags = ["--h", ",".join(map(repr, h)), "--pmax", ",".join(map(repr, pmax)),
                         "--power", ",".join(map(repr, power))]
                flags += [] if delta is None else ["--delta", repr(delta)]
                expected = build(std, power)
                expected = _round12((expected if delta is None else mw.delta_region(expected, delta))
                                    .to_json_dict())
                env = run_json(capsys, "region", "--kind", kind, *flags)
                assert env["result"]["constraint_set"] == expected, (kind, k, delta)
                if kind == "tdma":
                    assert run_json(capsys, "tdma", *flags)["result"]["region"] == expected, (k, delta)


def test_region_outer_non_degraded_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "region", "--kind", "outer-collective", "--h", "0.5,2", "--pmax", "2,2"
    )
    assert code == 2
    assert "degraded" in err


@pytest.mark.parametrize("flags", [
    ["--kind", "individual", "--power", "1,1"],
    ["--kind", "collective", "--power", "1,1", "--delta", "0.5"],
    ["--kind", "tdma"],
    ["--kind", "union-i-t", "--format", "csv"],
    ["--kind", "outer-collective", "--res", "11"],
])
def test_region_refuses_an_alpha_it_would_ignore(capsys, flags):
    # --alpha fixes time shares only for a fixed-power tdma set
    code, out, err = run_cli(capsys, "region", *flags, "--h", "0.5,0.5", "--pmax", "1,1",
                             "--alpha", "0.5,0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: --alpha ") and "--kind tdma and --power" in err


def test_region_csv_with_power_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2",
        "--power", "1,1", "--format", "csv",
    )
    assert code == 2


@pytest.mark.parametrize("command", [["region", "--kind", "individual"], ["tdma"]])
def test_a_delta_that_overflows_a_secrecy_bound_exits_2_naming_delta(capsys, command):
    code, out, err = run_cli(capsys, *command, "--h", "0.5,0.6", "--pmax", "1,1",
                             "--power", "1,1", "--delta", "1e-310")
    assert (code, out) == (2, "")
    assert err.startswith("error: delta 1e-310 too small"), err


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


def test_listing_the_users_the_other_way_round_reverses_every_per_user_field(capsys):
    # who transmits follows the gains, not the listing: listed the other way
    # round, the users get the same answer with each power pair reversed,
    # the oracle's included
    rng = random.Random(17)
    cases = set()
    for k in range(200):
        h = (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
        m = (rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0))
        command = ("jam", "sumopt")[k % 2]
        given, reversed_ = (
            run_cli(capsys, command, "--h", ",".join(map(repr, h[order])),
                    "--pmax", ",".join(map(repr, m[order])), "--verify")
            for order in (slice(None), slice(None, None, -1))
        )
        assert given[0] == reversed_[0] and given[2] == reversed_[2] == "", (h, m)
        given, reversed_ = (json.loads(out)["result"] for _, out, _ in (given, reversed_))
        for part in ("allocation", "oracle"):
            assert reversed_[part].pop("p") == given[part].pop("p")[::-1], (command, h, m, part)
        assert reversed_ == given, (command, h, m)
        cases.add(given["allocation"]["case"])
    assert cases >= {"BOTH_TRANSMIT", "ONE_TRANSMITS", "NONE", "JAM_AT_ROOT", "JAM_AT_MAX",
                     "NO_JAM"}, cases


def test_verify_failure_exits_3(capsys, monkeypatch):
    def bogus_oracle(objective, gains, pmax, resolution=201):
        return PowerAllocation(p=(0.0, 0.0), case_label="NONE", achieved_rate=1.0)

    monkeypatch.setattr("macwiretap.cli.grid_oracle", bogus_oracle)
    code, out, _ = run_cli(capsys, "jam", "--h", "0.5,2", "--pmax", "10,10", "--verify")
    assert code == 3
    env = json.loads(out)
    assert env["result"]["verify_gap"] > 1e-6


@pytest.mark.parametrize("argv", [
    ["sumopt", "--h", "0.5,2", "--pmax", "1.797e308,1.797e308"],
    ["sumopt", "--h", "1e308,1", "--pmax", "1e308,1"],
    ["sumopt", "--h", "0.1,0.2", "--pmax", "1e308,1e308"],
    # h1 * P1 overflows where the jammer cannot help
    ["jam", "--h", "2,3", "--pmax", "1.797e308,0.5"],
])
def test_verify_skips_the_oracle_cells_that_overflow(capsys, argv):
    # the oracle grid reaches cells where a power sum overflows although the
    # allocation does not; it skips them and verifies the answer
    plain = run_json(capsys, *argv)["result"]
    env = run_json(capsys, *argv, "--verify")
    assert env["result"]["allocation"] == plain["allocation"]
    assert env["result"]["verify_gap"] <= 1e-6


def test_verify_is_refused_nowhere_the_solver_answers(capsys):
    # pmax log-uniform up to the float maximum, where the oracle grid meets
    # cells that overflow.  jam may still exit 3: its oracle refines one
    # coarse step around the incumbent, too coarse for a root far below pmax
    rng = random.Random(7)
    codes = Counter()
    for k in range(1000):
        command = ("sumopt", "jam")[k % 2]
        h = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2)]
        m = [10.0 ** rng.uniform(-3.0, 308.0) if rng.random() < 0.9 else sys.float_info.max
             for _ in range(2)]
        argv = [command, "--h=%r,%r" % tuple(h), "--pmax=%r,%r" % tuple(m)]
        plain = run_cli(capsys, *argv)[0]
        verified = run_cli(capsys, *argv, "--verify")[0]
        assert not (plain == 0 and verified == 2), argv
        assert not (command == "sumopt" and verified == 3), argv
        # the sum rate at the box's far corner, the oracle's last cell, overflows
        corner = math.isinf(m[0] + m[1]) or math.isinf(h[0] * m[0] + h[1] * m[1])
        codes[command, plain, verified, corner] += 1
    assert codes["sumopt", 0, 0, True] >= 20, codes


def test_tdma_command(capsys):
    env = run_json(
        capsys, "tdma", "--h", "0.5,0.5", "--pmax", "2,4", "--power", "1,3"
    )
    assert env["result"]["optimal_alpha"] == [0.25, 0.75]
    rows = {r["label"]: r["rhs"] for r in env["result"]["region"]["rows"]}
    assert rows["SECRECY{1}"] > 0.0


def test_tdma_all_zero_powers_answer_with_given_shares(capsys):
    # all-zero powers have no optimal shares; with --alpha the set is still
    # defined, and tdma prints what region --kind tdma prints
    flags = ["--h", "0.5,0.5", "--pmax", "2,2", "--power", "0,0", "--alpha", "0.5,0.5"]
    env = run_json(capsys, "tdma", *flags)
    assert env["result"]["optimal_alpha"] is None
    region = run_json(capsys, "region", "--kind", "tdma", *flags)["result"]["constraint_set"]
    assert env["result"]["region"] == region
    assert {r["rhs"] for r in region["rows"]} == {0.0}
    code, out, err = run_cli(capsys, "tdma", *flags[:-2])
    assert (code, out) == (2, "")
    assert err == "error: time shares undefined for all-zero powers\n"


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


def test_scenario_out_that_cannot_be_opened_exits_2(capsys, tmp_path):
    # an unwritable --out is the user's input, not a fault of the program
    cfg = tmp_path / "scenario.json"
    data = json.loads(EXAMPLE_CONFIG.read_text())
    data["grid"] = [3, 3]
    cfg.write_text(json.dumps(data))
    for out in (tmp_path / "missing" / "cells.csv", tmp_path):
        code, stdout, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
        assert (code, stdout) == (2, ""), out
        assert err.startswith(f"error: cannot write {out}: [Errno ") and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()


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
        ("users", "20,35"),
        ("users", 20.0),
    ]
    for key, value in cases:
        cfg = tmp_path / f"{key}.json"
        data = json.loads(EXAMPLE_CONFIG.read_text())
        data[key] = value
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "scenario", "--config", str(cfg))
        assert code == 2, (key, value)
        assert err.startswith("error: ") and key in err, (key, err)


_CHANNEL_CONFIG = {
    "num_users": 2, "gains_main": [4, 1], "gains_tap": [1, 1],
    "noise_var_main": 2, "noise_var_tap": 1, "power_limits": [1, 1],
}


@pytest.mark.parametrize("command, key, value, field", [
    ("scenario", "noise_var_tap", "1.0", "noise_var_tap"),
    ("scenario", "noise_var_main", False, "noise_var_main"),
    ("scenario", "pathloss_exponent", "3", "pathloss_exponent"),
    ("scenario", "min_distance", True, "min_distance"),
    ("scenario", "area", [True, 100], "area"),
    ("scenario", "base_station", [50.0, "50"], "base_station"),
    ("scenario", "users", [["20", 35.0], [25.0, 70.0]], "users[0]"),
    ("scenario", "power_limits", [6000.0, True], "power_limits"),
    ("scenario", "grid", ["24", 24], "grid"),
    ("standardize", "noise_var_tap", "1", "noise_var_tap"),
    ("standardize", "noise_var_main", True, "noise_var_main"),
    ("standardize", "gains_main", [4, "1"], "gains_main"),
    ("standardize", "gains_tap", [True, 1], "gains_tap"),
    ("standardize", "power_limits", [1, "1"], "power_limits"),
    ("standardize", "num_users", "2", "num_users"),
    ("scenario", "users", [[20.0, 35.0], [25.0, False]], "users[1]"),
    ("scenario", "grid", [3, True], "grid"),
    ("scenario", "min_distance", "0.5", "min_distance"),
    ("standardize", "gains_main", [4, True], "gains_main"),
    ("standardize", "num_users", False, "num_users"),
    # a JSON integer past the float range, which float() cannot read
    ("scenario", "noise_var_tap", 10**400, "noise_var_tap"),
    ("scenario", "power_limits", [1.0, -10**400], "power_limits"),
    ("standardize", "gains_tap", [1, 10**400], "gains_tap"),
])
def test_config_strings_and_bools_are_not_numbers(capsys, tmp_path, command, key, value, field):
    # JSON strings and booleans that float() would read are refused at the
    # edge, with a message naming the field
    if command == "scenario":
        data = {**json.loads(EXAMPLE_CONFIG.read_text()), "grid": [3, 3]}
    else:
        data = dict(_CHANNEL_CONFIG)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    assert run_cli(capsys, command, "--config", str(cfg))[0] == 0
    cfg.write_text(json.dumps({**data, key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} must be "), err


@pytest.mark.parametrize("command, key, what", [
    ("scenario", "pathloss_exponant", "scenario"),
    ("standardize", "noise_var_tapp", "channel"),
])
def test_config_keys_naming_no_field_exit_2(capsys, tmp_path, command, key, what):
    # a misspelt key would otherwise leave its field at the default or drop it
    data = json.loads(EXAMPLE_CONFIG.read_text()) if command == "scenario" else dict(_CHANNEL_CONFIG)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**data, key: 4.0}))
    assert run_cli(capsys, command, "--config", str(cfg)) == (
        2, "", f"error: unknown {what} config keys: ['{key}']\n")


def test_scenario_edge_configs_keep_their_scalar_outcome(capsys, tmp_path):
    # numeric extremes on a 6x6 grid: each keeps the exit code and the
    # stderr line (or the CSV) that the per-cell scalar sweep produced, and
    # none lets a RuntimeWarning through to stderr
    cases = [
        # the receiver gain 33.5 ** -300 underflows to zero
        ({"pathloss_exponent": 300}, 2,
         "error: cell (8.33333, 8.33333): path-loss gain max(distance, min_distance) "
         "** -pathloss_exponent underflows to zero: distance 33.54101966249684, "
         "min_distance 1.0, pathloss_exponent 300.0\n"),
        # the jamming-root discriminant grows with the cube of a gain and
        # overflows at cell (25, 75), whose root the scaled form gives
        ({"pathloss_exponent": 150, "noise_var_tap": 1e-10}, 0,
         ("6e0c530f0a96f7794e2ec25a7fa9056c7d1689cdbd1a5a61f2a51e14d9b31003", 9.41588934369e-223)),
        ({"power_limits": [1e300, 1e300]}, 0,
         ("292aa1f0ecc91c5d4a24e46dbb5f725195cf8538987c61df9b4fc2d27e01d207", 9.756e296)),
        # the cell centre (i + 0.5) * width / nx overflows: the config is
        # rejected at the edge
        ({"area": [1.7e308, 1.7e308], "grid": [2, 2]}, 2,
         "error: area (1.7e+308, 1.7e+308) with grid (2, 2) too large: the cell centres "
         "overflow the float range\n"),
        # the secrecy rate g(P1 + P2) overflows: the first such cell names it
        ({"users": [[49.5, 50.0], [50.5, 50.0]], "base_station": [50.0, 50.0],
          "power_limits": [1.7976931348623157e308, 1.7976931348623157e308],
          "pathloss_exponent": 250, "grid": [3, 3]}, 2,
         "error: cell (16.6667, 16.6667): gains (0.0, 0.0) with pmax (1.7976931348623157e+308, "
         "1.7976931348623157e+308) too large: the secrecy rate overflows the float range\n"),
        # a user at the base station: min_distance ** -2 overflows
        ({"users": [[50.0, 50.0], [25.0, 70.0]], "min_distance": 1e-200}, 2,
         "error: cell (8.33333, 8.33333): path-loss gain max(distance, min_distance) "
         "** -pathloss_exponent overflows: distance 0.0, min_distance 1e-200, "
         "pathloss_exponent 2.0\n"),
        # a user on a cell centre: the tap gain 1e-3 ** -300 overflows
        ({"base_station": [26.0, 25.0], "users": [[25.0, 25.0], [75.0, 75.0]], "grid": [2, 2],
          "min_distance": 1e-3, "pathloss_exponent": 300}, 2,
         "error: cell (25, 25): path-loss gain max(distance, min_distance) "
         "** -pathloss_exponent overflows: distance 0.0, min_distance 0.001, "
         "pathloss_exponent 300.0\n"),
        # gains_main * noise_var_tap underflows to zero
        ({"pathloss_exponent": 155, "noise_var_tap": 1e-147}, 2,
         "error: cell (8.33333, 8.33333): gains_main (3.4330451120721237e-237, "
         "4.665524046260508e-234) times noise_var_tap 1e-147 underflows to zero, "
         "so h is undefined\n"),
        # gains_tap * noise_var_main over gains_main * noise_var_tap overflows
        ({"pathloss_exponent": 155, "noise_var_tap": 1e-60, "noise_var_main": 1e150}, 2,
         "error: cell (25, 75): gains_tap (1.441664445931125e-249, 4.567192616659072e-109) "
         "times noise_var_main 1e+150 over gains_main (3.4330451120721237e-237, "
         "4.665524046260508e-234) times noise_var_tap 1e-60 overflows the float range, "
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
            sha, p2 = expected
            assert hashlib.sha256(out.encode()).hexdigest() == sha
            assert json.loads(err)["result"]["cells"] == 36
            assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(p2, rel=1e-4)


def test_jam_answers_where_the_root_discriminant_overflows(capsys):
    # h1 h2 (h2-1) ((h2-1) + (h2-h1) m1) overflows in each call, so the
    # root is the scaled form's; the jamming power is the exact root to 12
    # digits: 1e-75 at gains 0.5 and 1e150 (h1 (h2-1) ((h2-1) + (h2-h1) m1)
    # / h2 is 1e150 there, and the root its square root over h2 - h1)
    cases = [
        (("0.5,1e150", "1,1"), [1.0, 1e-75]),
        (("1e-300,1e300", "1e300,1e300"), [1e300, 1e-150]),
        (("0.5,3", "1e308,1e308"), [1e308, 3.6514837167e153]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (h, pmax), p in cases:
            allocation = run_json(capsys, "jam", "--h", h, "--pmax", pmax)["result"]["allocation"]
            assert (allocation["p"], allocation["case"]) == (p, "JAM_AT_ROOT"), h
            assert math.isfinite(allocation["achieved_rate"]), h


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
        # overflows inside the split's eavesdropper rate name the inputs,
        # not g()'s argument
        (["split", "--kind", "collective", "--h", "1e200,1e200", "--pmax", "1e200,1e200",
          "--power", "1e200,1e200", "--secret", "0.1,0.1"], "powers"),
        (["split", "--kind", "individual", "--h", "1e200,1e200", "--pmax", "1e200,1e200",
          "--power", "1e200,1e200", "--secret", "0.1,0.1"], "powers"),
        # the secrecy rate itself overflows at the closed-form allocation
        (["sumopt", "--h", "0,0", "--pmax", "1.7976931348623157e308,1.7976931348623157e308"],
         "gains"),
        (["jam", "--h", "0,0", "--pmax", "1.7976931348623157e308,1.7976931348623157e308"],
         "gains"),
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


def test_envelopes_never_hold_nan_or_infinity(capsys):
    # in the result or in the echo, json's refusal text, and nothing printed
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)):
        for echo, result in (({"h": [0.5, 2.0]}, {"allocation": {"achieved_rate": bad}}),
                             ({"h": [0.5, bad]}, {"allocation": {"achieved_rate": 1.0}})):
            with pytest.raises(ValueError) as expected:
                envelope_text("jam", echo, result)
            with pytest.raises(ValueError) as got:
                _emit("jam", echo, result)
            assert str(got.value) == str(expected.value)
            assert str(got.value).startswith("Out of range float values are not JSON compliant: ")
            assert capsys.readouterr().out == ""


def test_envelopes_refuse_what_json_cannot_write(capsys):
    for bad in (np.int64(1), np.bool_(True), {1, 2}, b"bytes", 1j):
        with pytest.raises(TypeError) as expected:
            envelope_text("split", {"h": [0.5]}, {"extra": [0.0, bad]})
        with pytest.raises(TypeError) as got:
            _emit("split", {"h": [0.5]}, {"extra": [0.0, bad]})
        assert str(got.value) == str(expected.value)
        assert capsys.readouterr().out == ""


_ENVELOPE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, -1e22,
                    1.7976931348623157e308, 0.1 + 0.2, 0.30000000000000004e-7,
                    # the layout edges of a rounded float's text: %.12g's
                    # exponent form from 1e12, repr's from 1e16, both below
                    # 1e-4, and the smallest normal float
                    1e12, 123456789012.0, 999999999999.5, 1e15, 9.99999999999e15,
                    1e-4, 9.99999999999e-5, 2.2250738585072014e-308, -2.0)
_envelope_text = st.one_of(
    st.text(max_size=12),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\r\t\b\x0cé€\u2028\U0001f600\U0010ffffa ', max_size=12),
)
_envelope_leaves = st.one_of(
    st.sampled_from(_ENVELOPE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from(_ENVELOPE_FLOATS).map(np.float64),
    st.integers(-(2**80), 2**80),
    st.sampled_from((2**64, 2**64 + 1, -(2**63), -1, 0)),
    st.booleans(),
    st.none(),
    _envelope_text,
)
_envelope_values = st.recursive(
    _envelope_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_envelope_text, children, max_size=4),
    ),
    max_leaves=16,
)


def test_rounded_floats_are_written_as_the_repr_of_the_rounded_value():
    # the writer takes the %.12g text as it stands wherever that is already
    # the repr; 120,000 seeded floats, log-uniform over every binary exponent
    # (subnormals included) with either sign, and the layout edges, each as a
    # float and as a numpy float64, against the long way round
    rng = np.random.default_rng(30)
    n = 120_000
    values = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n)) * rng.choice([-1.0, 1.0], n)
    for v in [*values.tolist(), *_ENVELOPE_FLOATS]:
        want = float.__repr__(float(f"{v:.12g}"))
        assert _float_text(v, True) == want, v
        assert _float_text(np.float64(v), True) == want, v


@settings(max_examples=200, deadline=None)
@given(command=_envelope_text,
       echo=st.dictionaries(_envelope_text, _envelope_values, max_size=4),
       result=_envelope_values)
def test_the_envelope_is_the_text_of_json_dumps(command, echo, result):
    # the one-pass writer against the stdlib: sorted keys, indent 2, ASCII
    # escapes, float and int reprs, empty containers, result rounded
    out = io.StringIO()
    _emit(command, echo, result, stream=out)
    assert out.getvalue() == envelope_text(command, echo, result)


def test_scripts_write_nonempty_csvs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [
        [ROOT / "scripts" / "region_sweep.py", "--res", "51", "--outdir", tmp_path / "regions"],
        [ROOT / "scripts" / "run_scenario.py", "--config", EXAMPLE_CONFIG,
         "--out", tmp_path / "cells.csv"],
    ]
    for argv in runs:
        proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
    csvs = sorted((tmp_path / "regions").glob("*.csv")) + [tmp_path / "cells.csv"]
    assert len(csvs) == 19
    for path in csvs:
        header, *rows = path.read_text().splitlines()
        assert "," in header and rows, path


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


def test_an_internal_fault_exits_1_on_one_line(capsys, monkeypatch):
    def broken(args):
        return 1 / 0

    monkeypatch.setattr("macwiretap.cli._cmd_tdma", broken)
    monkeypatch.setattr("macwiretap.cli.build_parser", build_parser.__wrapped__)
    code, out, err = run_cli(capsys, "tdma", "--h", "0.5,0.5", "--pmax", "2,4", "--power", "1,3")
    assert (code, out) == (1, "")
    assert err == "error: internal error: ZeroDivisionError: division by zero\n"


def test_main_reuses_one_parser(capsys, monkeypatch):
    calls = [
        ["region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2", "--res", "21"],
        ["jam", "--h", "0.5,2", "--pmax", "10,10"],
        ["split", "--kind", "individual", "--h", "0.5,0.5", "--pmax", "2,2", "--power", "2,2",
         "--secret", "0.16,0"],
        ["jam", "--nope"],
        ["tdma", "--h", "0.5,0.5", "--pmax", "2,4", "--power", "1,3"],
        ["region", "--kind", "individual", "--h", "0.5,abc", "--pmax", "1,1"],
        ["sumopt", "--h", "1.2,1.5", "--pmax", "10,10"],
        ["tdma", "--h", "0.5,0.5", "--pmax", "2,2", "--power", "1,1", "--alpha", "0.7,0.7"],
        ["region", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "2,2", "--res", "21"],
    ]
    build_parser()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert built == []  # no call builds a parser, not even to refuse its argv
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 2, 0, 2, 0]
    assert reused[0] == reused[-1]
    monkeypatch.setattr("macwiretap.cli.build_parser", build_parser.__wrapped__)
    assert [run_cli(capsys, *argv) for argv in calls] == reused


def test_grid_sizes_are_capped_at_the_edge(capsys):
    over = str(MAX_GRID_RES + 1)
    cases = [
        (["region", "--kind", "individual", "--h", "0.5,0.5", "--pmax", "1,1", "--res", over], "--res"),
        (["region", "--kind", "tdma", "--h", "0.5,0.5", "--pmax", "1,1", "--alpha-res", over],
         "--alpha-res"),
        (["sumopt", "--h", "0.5,2", "--pmax", "1,1", "--verify", "--res", over], "--res"),
        (["jam", "--h", "0.5,2", "--pmax", "1,1", "--verify", "--res", over], "--res"),
    ]
    for argv, flag in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"argument {flag}: at most {MAX_GRID_RES} grid points, got {over}" in err, err


def test_grid_sizes_have_a_floor_at_the_edge(capsys):
    region = ["region", "--kind", "tdma", "--h", "0.5,0.5", "--pmax", "1,1"]
    sumopt = ["sumopt", "--h", "0.5,2", "--pmax", "1,1"]
    jam = ["jam", "--h", "0.5,2", "--pmax", "1,1"]
    cases = [(region, "--res", 2), (region, "--alpha-res", 2)] + [
        (argv + verify, "--res", MIN_ORACLE_RESOLUTION)
        for argv in (sumopt, jam) for verify in ([], ["--verify"])
    ]
    for argv, flag, floor in cases:
        for res in (floor - 1, 0, -3):
            code, out, err = run_cli(capsys, *argv, flag, str(res))
            assert (code, out) == (2, ""), (argv, flag, res)
            assert f"argument {flag}: at least {floor} grid points, got {res}" in err, err
        code, out, _ = run_cli(capsys, *argv, flag, str(floor))
        assert code in (0, 3), (argv, flag)
        assert json.loads(out)["inputs_echo"][flag[2:].replace("-", "_")] == floor


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


# 0, the smallest subnormal, log-uniform 1e-320 to 1e308 and the float maximum
_EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
)


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}")


@pytest.mark.parametrize("kind", ["individual", "collective", "tdma", "outer-individual",
                                  "outer-collective", "union-i-t"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    h=st.tuples(_EXTREME_FLOATS, _EXTREME_FLOATS),
    equal_gains=st.booleans(),
    pmax=st.tuples(_EXTREME_FLOATS, _EXTREME_FLOATS),
    delta=st.one_of(st.sampled_from([1.0, 5e-324]), st.floats(-323.0, 0.0).map(lambda e: 10.0 ** e)),
    res=st.integers(2, 40),
    alpha_res=st.integers(2, 40),
    csv=st.booleans(),
)
def test_region_boundaries_at_float_extremes_exit_cleanly(kind, h, equal_gains, pmax, delta, res,
                                                          alpha_res, csv):
    # boundaries of every kind at float-edge inputs exit 0 with finite
    # output or 2 with a message, and never warn or raise
    h = (h[0], h[0]) if equal_gains else h
    argv = ["region", "--kind", kind, "--h", f"{h[0]!r},{h[1]!r}", "--pmax", f"{pmax[0]!r},{pmax[1]!r}",
            "--delta", repr(delta), "--res", str(res), "--alpha-res", str(alpha_res),
            "--format", "csv" if csv else "json"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        if csv:
            header, *rows = out.getvalue().splitlines()
            assert header == "R1,R2" and rows, argv
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")), argv
        else:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), (argv, err.getvalue())


# every CLI path once, pinned as sha256 of json.dumps([exit code, stdout,
# stderr]); the files are written to the working directory, and COLUMNS
# fixes the width of argparse's usage line
_PIN_SCENARIO = {
    "grid": [3, 2], "area": [100.0, 100.0], "base_station": [50.0, 50.0],
    "users": [[20.0, 35.0], [25.0, 70.0]], "power_limits": [6000.0, 6000.0],
    "noise_var_main": 1.0, "noise_var_tap": 1.0,
}
_PIN_CHANNEL = {
    "num_users": 2, "gains_main": [4, 1], "gains_tap": [1, 1],
    "noise_var_main": 2, "noise_var_tap": 1, "power_limits": [1, 1],
}
_PIN_H_PMAX = ["--h", "0.5,0.5", "--pmax", "2,4"]
_PIN_ARGV = {
    # one ordinary call of every subcommand
    "standardize": ["standardize", "--config", "channel.json"],
    "region": ["region", "--kind", "individual", "--h", "0.3,0.7", "--pmax", "12,5",
               "--delta", "0.8", "--res", "21"],
    "region_csv": ["region", "--kind", "union-i-t", *_PIN_H_PMAX, "--res", "11", "--alpha-res", "5",
                   "--format", "csv"],
    "sumopt": ["sumopt", "--h", "0.25,0.3", "--pmax", "10,10", "--verify", "--res", "21"],
    "jam": ["jam", "--h", "0.5,2", "--pmax", "10,10"],
    "tdma": ["tdma", *_PIN_H_PMAX, "--power", "1,3"],
    "split": ["split", "--kind", "individual", *_PIN_H_PMAX, "--power", "1,3", "--secret", "0.1,0.2"],
    "scenario": ["scenario", "--config", "scenario.json"],
    "split_open": ["split", "--kind", "collective", *_PIN_H_PMAX, "--power", "1,3", "--secret", "0.1,0",
                   "--open", "0.2,0.1"],
    # fixed-power sets of every kind
    "region_power_tdma": ["region", "--kind", "tdma", *_PIN_H_PMAX, "--power", "1,3"],
    "region_power_tdma_alpha": ["region", "--kind", "tdma", *_PIN_H_PMAX, "--power", "1,3",
                                "--alpha", "0.5,0.5"],
    "region_power_outer_individual": ["region", "--kind", "outer-individual", *_PIN_H_PMAX,
                                      "--power", "1,3"],
    "region_power_outer_collective": ["region", "--kind", "outer-collective", *_PIN_H_PMAX,
                                      "--power", "1,3"],
    "region_power_union_i_t": ["region", "--kind", "union-i-t", *_PIN_H_PMAX, "--power", "1,3"],
    # --delta on fixed-power sets
    "region_power_delta": ["region", "--kind", "individual", *_PIN_H_PMAX, "--power", "1,3",
                           "--delta", "0.5"],
    "region_power_tdma_delta": ["region", "--kind", "tdma", *_PIN_H_PMAX, "--power", "1,3",
                                "--delta", "0.5"],
    "tdma_delta": ["tdma", *_PIN_H_PMAX, "--power", "1,3", "--alpha", "0.4,0.6", "--delta", "0.5"],
    # malformed requests
    "unequal_lengths": ["region", "--kind", "individual", "--h", "0.5,0.5,0.5",
                        "--pmax", "2,4"],
    "sumopt_three_users": ["sumopt", "--h", "0.1,0.2,0.3", "--pmax", "1,1,1"],
    "non_integer_res": ["region", "--kind", "individual", *_PIN_H_PMAX, "--res", "2.5"],
    "scenario_not_object": ["scenario", "--config", "list.json"],
    "standardize_not_object": ["standardize", "--config", "list.json"],
    "scenario_unreadable": ["scenario", "--config", "missing/scenario.json"],
    "standardize_unreadable": ["standardize", "--config", "missing/channel.json"],
    # the edges of argument parsing: argparse's texts, top level and subcommand
    "jam_empty_prefix_flag": ["jam", "--h", "0.5,2", "--pmax", "10,10", "--=x"],
    "region_version": ["region", "--kind", "individual", *_PIN_H_PMAX, "--version"],
    "jam_help": ["jam", "-h"],
    "jam_prefix_flag": ["jam", "--h", "0.5,2", "--pm", "10,10"],
    "jam_repeated_flag": ["jam", "--h", "0.1,0.1", "--h", "0.5,2", "--pmax", "10,10"],
    "jam_flag_equals_value": ["jam", "--h=0.5,2", "--pmax=10,10"],
    "jam_double_dash_before_value": ["jam", "--h", "0.5,2", "--pmax", "--", "10,10"],
    "region_negative_number": ["region", "--kind", "individual", *_PIN_H_PMAX, "--power", "1,3",
                               "--delta", "-0.5"],
    "empty_argv": [],
    "unknown_subcommand": ["frobnicate", "--h", "0.5,2"],
}
_PIN_SHA256 = {
    "standardize": "c62252f5b238ed01627998318dfa38f7be0f57a58c287a5b6ba5860e40dc7dcf",
    "region": "d18777b89b8a596317a2cfeb1f680e00ead977189e59b8921dc72e1358cbe7e1",
    "region_csv": "52a20d7ff501bdb4f7df08be90827d2dbff32c5dcd5639a0bf0678576b8f0b64",
    "sumopt": "4648fcd12aca91a5badd4e61bf5463cbf6fa66654c3a8295d768972d73371b7e",
    "jam": "1ff918ac7df456a101a2999fdeb11cf47540ec8ecd7e3e90f430b9c423140938",
    "tdma": "8da62a81531ec6bb491280da9fb5c3455ffeb3b790c6b0b7be3c2b03124db0e7",
    "split": "34dcedd87a557f14e2a643e9736abd45f4a5aa27e7aacf61e39b644070e816c6",
    "scenario": "6bb73d4046e2bd7c187b948a7dabeebb9d08b02fa194b4a4a5b87f0504265b0b",
    "split_open": "af3e9c8eb9989ce61f3ed1ea633066605604c59a02e89251366e83f4ceaa4cbf",
    "region_power_tdma": "aa26211862b7e585e2b8e990490184ddbb9a511a27618764483c6072e1052a97",
    "region_power_tdma_alpha": "88901158a993ad7bd3ef2c86725996ad066260239ebcf62660e5a95daa01e69f",
    "region_power_outer_individual": "827710a121a3aa2d280a07815c7c77bfb07a509f9d37fa2c8e0e16edb7e621dd",
    "region_power_outer_collective": "254b2e03cd842e4b744cba2ae6ef3c56fb1830cd36ba21a3fa101ab0e2f34593",
    "region_power_union_i_t": "4bd1255f35e4b924b2ce2f215a25992d40b024abbc84dc2f5ef4fcdee75cf58c",
    "region_power_delta": "37056b21f931d6670987866b125dd6f809e00cb2f396c297ade58d6b69f96a8c",
    "region_power_tdma_delta": "2d336e7f2ca7d4cbae81f5fb25864a4b111c7aa553a51d20bdaa7c4c53d0dfb2",
    "tdma_delta": "d8cdb66f1cdd680e6bcde74ca0902c0cb292e862a0dc90a583e1be26789a9958",
    "unequal_lengths": "1e21b0b98f8bb0337c9251a1a4c96ac024d2e1943d22aa5a35a0e9b0cbb386fe",
    "sumopt_three_users": "92a74fb728b2696b7b01b424068374d1482b2bdc0ed9d6646311d400127afe61",
    "non_integer_res": "cdba2fe43a1b6c91e08aa9720143eee895834bedf335840b5cd0d42711891c2e",
    "scenario_not_object": "b80b95fa977f54ce1f548482c0ff62f56357acf68f3cd81074dea84449af2257",
    "standardize_not_object": "b80b95fa977f54ce1f548482c0ff62f56357acf68f3cd81074dea84449af2257",
    "scenario_unreadable": "5b1b1cfff40ec8b74574306394d81d7303951b66ca2f2a76325b0c444b6ee7f5",
    "standardize_unreadable": "762b6da21b15828b01a97ab27df24e5823df9ab582772664e67070fd4522a798",
    "jam_empty_prefix_flag": "1028b9b986cd0f8af2841b37b839da5799650bae0a6d19c1daadefb15f849575",
    "region_version": "a2199be66a10b3d449a06a86c9c3a3765bd49bf1dbe2a8805b540bf0aec6cfc8",
    "jam_help": "aa8047d0be777b24768cc78c167a733d1d27a5f0cb068bb878837ceb11bd477a",
    "jam_prefix_flag": "1ff918ac7df456a101a2999fdeb11cf47540ec8ecd7e3e90f430b9c423140938",
    "jam_repeated_flag": "1ff918ac7df456a101a2999fdeb11cf47540ec8ecd7e3e90f430b9c423140938",
    "jam_flag_equals_value": "1ff918ac7df456a101a2999fdeb11cf47540ec8ecd7e3e90f430b9c423140938",
    "jam_double_dash_before_value": "7032aed00e4675977859a6780aec57abf56ce79982f1f9ef9a9d890510159131",
    "region_negative_number": "9186875c9c55103648bc4e7a0112e0feee35f9e9341c27515a877451aabbed77",
    "empty_argv": "7e9ef47f36f3615bffb4adecca0c4778587d082f542129a1b5c34c178d5d5c69",
    "unknown_subcommand": "1a72a24468d9328c70e1ae5a7412c7e59bd76078f6be1eb2cd83328d3c406352",
}


def test_every_cli_path_keeps_its_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "scenario.json").write_text(json.dumps(_PIN_SCENARIO))
    (tmp_path / "channel.json").write_text(json.dumps(_PIN_CHANNEL))
    (tmp_path / "list.json").write_text("[1, 2]")
    got = {}
    for name, argv in _PIN_ARGV.items():
        code, out, err = run_cli(capsys, *argv)
        got[name] = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert got == _PIN_SHA256


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _mutant(argv, k):
    """The ``k``-th parse edge applied to ``argv``: the cases the flag table
    and the top-level parser might read differently."""
    flags = [i for i, arg in enumerate(argv) if arg.startswith("--") and i + 1 < len(argv)]
    i = flags[k % len(flags)] if flags else len(argv) - 1
    edges = [
        argv + ["--=x"],
        argv[:i] + ["--=", *argv[i:]],
        argv + ["--version"],
        argv[:1] + ["-h"],
        argv + ["-h"],
        argv[:i] + [argv[i][:-1]] + argv[i + 1:],
        argv[:i] + [argv[i][:3]] + argv[i + 1:],
        argv + argv[i:i + 2],
        argv[:i] + [f"{argv[i]}={argv[i + 1]}" if i + 1 < len(argv) else argv[i]] + argv[i + 2:],
        argv[:i + 1] + ["--"] + argv[i + 1:],
        argv + ["--", "1"],
        argv[:i + 1] + ["-" + argv[i + 1] if i + 1 < len(argv) else "-1"] + argv[i + 2:],
        argv[:i + 1] + ["-1"] + argv[i + 2:],
        [],
        ["frobnicate", *argv[1:]],
        [argv[0][:3], *argv[1:]],
        ["--version", *argv],
        argv + ["--kind", "nosuch"],
        argv + ["--format", "xml"],
        argv + ["--verify=yes"],
    ]
    return edges[k % len(edges)]


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(vars(parse(argv)))  # repr: a NaN flag equals itself, and key order counts
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_the_subcommand_parser_parses_as_the_full_parser(tmp_path, monkeypatch):
    # the dispatched parse against argparse's own top-level pass, on every
    # benchmark argv (and a parse edge applied to each), the known defects
    # and the CLI fuzz draws: the same namespace, or the same exit and texts.
    # The flag table alone gives that namespace or declines, and it declines
    # no well-formed benchmark argv
    from test_cli_fuzz import CALLS, DRAWS

    monkeypatch.setenv("COLUMNS", "80")
    workloads = _perfbench_workloads()
    ops = [op for workload in workloads.WORKLOADS for seed in (1, 2, 3) for block in range(4)
           for op in workloads.block_ops(workload, seed, block)]
    argvs = [op.argv for seed in (1, 2, 3) for op in workloads.known_defect_ops(seed)]
    argvs += [op.argv for op in ops]
    argvs += [_mutant(argv, k) for k, argv in enumerate(list(argvs))]
    argvs += list(_PIN_ARGV.values())
    for command, draw in DRAWS.items():
        rng = random.Random(f"cli-fuzz:{command}")
        argvs += [draw(rng, tmp_path) for _ in range(CALLS)]
    parser = build_parser()

    def table_parse(argv):
        table = parser.tables.get(argv[0]) if argv else None
        return table and _table_parse(argv, *table)

    for argv in argvs:
        expected = _parse_outcome(parser.parse_args, argv)
        assert _parse_outcome(_parse_args, argv) == expected, argv
        table = table_parse(argv)
        assert table is None or repr(vars(table)) == expected, argv
    assert all(table_parse(op.argv) is not None for op in ops if op.klass != "malformed")


def test_a_closed_stdout_exits_1_in_silence():
    # the reader takes one line of the example CSV and leaves: the next
    # write fails, and that is neither an internal error nor a traceback
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "macwiretap.cli", "scenario", "--config", str(EXAMPLE_CONFIG)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"x,y,P1,P2,sumrate_jam,sumrate_nojam,case\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
