"""Seeded fuzz of the CLI contract, in-process through ``cli.main``.

Every subcommand is called with K = 1 to 6 users, extreme finite floats
(0, the smallest subnormal, 1e-300, 1e150, the float maximum, log-uniform
draws across the float range), some negative values, mismatched lengths,
and scenario configs on grids up to 5 x 5.  Whatever the input, the call
exits 0 or 2 (3 only under ``--verify``), prints a JSON envelope free of
NaN and Infinity on success and nothing on stdout on refusal, and never
prints a traceback or warns.  An envelope's result holds no -0.0 unless the
input holds one.
"""

import contextlib
import io
import json
import math
import random
import re
import warnings
from pathlib import Path

import pytest

from macwiretap.cli import main

CALLS = 500
KINDS = ("individual", "collective", "tdma", "outer-individual", "outer-collective", "union-i-t")
EXTREMES = (0.0, 5e-324, 1e-300, 1e150, 1.797e308)


def _value(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.3:
        v = rng.choice(EXTREMES)
    elif r < 0.6:
        v = 10.0 ** rng.uniform(-323.0, 308.0)
    else:
        v = rng.uniform(0.0, 10.0)  # the ordinary scale, where most calls succeed
    return -v if rng.random() < 0.01 else v


def _values(rng: random.Random, k: int) -> list[float]:
    if rng.random() < 0.03:  # a length that does not match the others
        k = max(1, k + rng.choice((-1, 1)))
    return [_value(rng) for _ in range(k)]


def _arg(flag: str, *values: float) -> str:
    """``--flag=v1,v2``: joined by ``=``, so argparse does not take a
    negative value for a flag."""
    return f"{flag}=" + ",".join(map(repr, values))


def _alpha(rng: random.Random, k: int) -> list[float]:
    shares = [rng.random() for _ in range(k)]
    return shares if rng.random() < 0.2 else [v / sum(shares) for v in shares]


def _powers(rng: random.Random, pmax: list[float]) -> list[float]:
    if rng.random() < 0.2:
        return _values(rng, len(pmax))
    return [m * rng.random() for m in pmax]  # within the limits, but for a sign


def _users(rng: random.Random, two: float = 0.8) -> int:
    return 2 if rng.random() < two else rng.randint(1, 6)


def _delta(rng: random.Random) -> float:
    return rng.choice((1.0, 5e-324, 10.0 ** rng.uniform(-323.0, 0.0), rng.uniform(0.0, 1.0),
                       rng.choice((0.0, 1.5, -0.5))))


def _standardize(rng, tmp_path):
    k = _users(rng, 0.5)
    if rng.random() < 0.5:
        config = {"num_users": k, "gains_main": _values(rng, k), "gains_tap": _values(rng, k),
                  "noise_var_main": _value(rng), "noise_var_tap": _value(rng),
                  "power_limits": _values(rng, k)}
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(config))
        return ["standardize", "--config", str(path)]
    argv = ["standardize", _arg("--gains-main", *_values(rng, k)), _arg("--gains-tap", *_values(rng, k)),
            _arg("--noise-main", _value(rng)), _arg("--noise-tap", _value(rng)),
            _arg("--power-limits", *_values(rng, k))]
    return argv + ([_arg("--tol", _value(rng))] if rng.random() < 0.3 else [])


def _region(rng, tmp_path):
    kind = rng.choice(KINDS)
    boundary = rng.random() < 0.5
    k = _users(rng, 0.9 if boundary else 0.3)
    h, pmax = _values(rng, k), _values(rng, k)
    if rng.random() < 0.3:  # a degraded eavesdropper, where the outer bounds hold
        h = [rng.random()] * k
    argv = ["region", "--kind", kind, _arg("--h", *h), _arg("--pmax", *pmax)]
    if boundary:
        argv += ["--res", str(rng.randint(2, 25)), "--alpha-res", str(rng.randint(2, 25)),
                 "--format", rng.choice(("json", "csv"))]
    else:  # a fixed-power constraint set
        argv += [_arg("--power", *_powers(rng, pmax))]
        if kind == "tdma" and rng.random() < 0.5:
            argv += [_arg("--alpha", *_alpha(rng, k))]
    return argv + ([_arg("--delta", _delta(rng))] if rng.random() < 0.5 else [])


def _power_opt(command):
    def draw(rng, tmp_path):
        k = _users(rng, 0.9)
        argv = [command, _arg("--h", *_values(rng, k)), _arg("--pmax", *_values(rng, k))]
        return argv + (["--verify", "--res", str(rng.randint(11, 41))] if rng.random() < 0.5 else [])

    return draw


def _tdma(rng, tmp_path):
    k = _users(rng, 0.3)
    pmax = _values(rng, k)
    argv = ["tdma", _arg("--h", *_values(rng, k)), _arg("--pmax", *pmax), _arg("--power", *_powers(rng, pmax))]
    if rng.random() < 0.5:
        argv += [_arg("--alpha", *_alpha(rng, k))]
    return argv + ([_arg("--delta", _delta(rng))] if rng.random() < 0.5 else [])


def _split(rng, tmp_path):
    k = _users(rng, 0.3)
    pmax = _values(rng, k)
    argv = ["split", "--kind", rng.choice(("individual", "collective")),
            _arg("--h", *_values(rng, k)), _arg("--pmax", *pmax),
            _arg("--power", *_powers(rng, pmax)), _arg("--secret", *_values(rng, k))]
    return argv + ([_arg("--open", *_values(rng, k))] if rng.random() < 0.5 else [])


def _point(rng, width, height):
    if rng.random() < 0.1:
        return [_value(rng), _value(rng)]
    return [rng.uniform(0.0, width), rng.uniform(0.0, height)]


def _scenario(rng, tmp_path):
    width, height = (_value(rng) for _ in range(2)) if rng.random() < 0.3 else (100.0, 100.0)
    config = {
        "grid": [rng.randint(1, 5), rng.randint(1, 5)],
        "area": [width, height],
        "base_station": _point(rng, width, height),
        "users": [_point(rng, width, height) for _ in range(2)],
        "power_limits": _values(rng, 2),
        "noise_var_main": _value(rng),
        "noise_var_tap": _value(rng),
    }
    if rng.random() < 0.5:
        config["pathloss_exponent"] = _value(rng)
    if rng.random() < 0.5:
        config["min_distance"] = _value(rng)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    argv = ["scenario", "--config", str(path)]
    return argv + (["--out", str(tmp_path / "cells.csv")] if rng.random() < 0.5 else [])


DRAWS = {
    "standardize": _standardize,
    "region": _region,
    "sumopt": _power_opt("sumopt"),
    "jam": _power_opt("jam"),
    "tdma": _tdma,
    "split": _split,
    "scenario": _scenario,
}


def _reject_constant(name):
    raise ValueError(f"output holds {name}")


def _assert_finite_csv(text: str, columns: int) -> None:
    header, *rows = text.splitlines()
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.split(",")[:columns]), row


def _holds_negative_zero(argv) -> bool:
    """Whether a value of the argv, or of the config file it names, is -0.0
    (written as repr and json.dumps write it)."""
    texts = list(argv)
    if "--config" in argv:
        texts.append(Path(argv[argv.index("--config") + 1]).read_text())
    return any(re.search(r"-0\.0(?![0-9])", text) for text in texts)


def _has_negative_zero(obj) -> bool:
    if isinstance(obj, float):
        return obj == 0.0 and math.copysign(1.0, obj) < 0.0
    if isinstance(obj, dict):
        obj = list(obj.values())
    return isinstance(obj, list) and any(map(_has_negative_zero, obj))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors exit from inside main
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", DRAWS)
def test_cli_contract_under_fuzz(command, tmp_path):
    rng = random.Random(f"cli-fuzz:{command}")
    for _ in range(CALLS):
        argv = DRAWS[command](rng, tmp_path)
        code, out, err = _run(argv)
        assert code in ((0, 2, 3) if "--verify" in argv else (0, 2)), (argv, err)
        assert "Traceback" not in err, (argv, err)
        if code == 2:
            assert out == "", argv
            # a refusal names the user's input, never a row the package built
            assert not err.startswith("error: row "), (argv, err)
            continue
        if command == "scenario" and "--out" not in argv:
            envelope = json.loads(err, parse_constant=_reject_constant)
            _assert_finite_csv(out, 6)
        elif "csv" in argv:
            envelope = None
            _assert_finite_csv(out, 2)
        else:
            envelope = json.loads(out, parse_constant=_reject_constant)
        if envelope is not None and not _holds_negative_zero(argv):
            assert not _has_negative_zero(envelope["result"]), argv
        if command == "scenario" and "--out" in argv:
            _assert_finite_csv((tmp_path / "cells.csv").read_text(), 6)
