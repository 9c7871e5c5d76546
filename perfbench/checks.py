"""Output checker: judges one op's exit code and output against references
built independently from the package's public API.

A problem is either FAILED (the op did not complete the way it should: a
wrong exit code, an exception escaping ``main``, a traceback, stray output)
or WRONG (it completed but its output is unparseable, non-finite,
non-deterministic, or disagrees with a reference).  Both count as failed
ops; only WRONG makes the run's result incorrect.

The checks run outside the timed section.  Callers import this module after
putting the package under test on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.optimize import linprog

import macwiretap as mw

FAILED = "failed"
WRONG = "wrong"

CASE_LABELS = ("JAM_AT_ROOT", "JAM_AT_MAX", "NO_JAM", "BOTH_TRANSMIT", "NONE")
SWEEP_HEADER = "x,y,P1,P2,sumrate_jam,sumrate_nojam,case"
VERIFY_GAP_TOL = 1e-6
MATCH_TOL = 1e-9      # re-solved cells, standard forms
WITNESS_TOL = 1e-9    # split witness rows and fill
SAMPLED_CELLS = 8
SAMPLED_POWERS = 6


@dataclass
class Outcome:
    """What one in-process call of ``cli.main`` produced; ``code`` is None
    when an exception escaped."""

    code: int | None
    stdout: str
    stderr: str


@dataclass
class Verdict:
    problems: list[tuple[str, str]] = field(default_factory=list)
    # what the traced run reports: case counts, oracle gap, vertex count
    facts: dict[str, Any] = field(default_factory=dict)

    def add(self, severity: str, message: str) -> None:
        self.problems.append((severity, message))

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def wrong(self) -> bool:
        return any(s == WRONG for s, _ in self.problems)


class _Bad(Exception):
    """An output problem; aborts the rest of one op's checks."""


def _reject_constant(name: str):
    raise _Bad(f"output holds {name}")


def _json(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise _Bad(f"output is not JSON: {exc}") from exc


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise _Bad(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise _Bad(f"non-finite value {text!r}")
    return value


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check(op, out: Outcome) -> Verdict:
    """Judge one op.  Sampling inside the checks is seeded by the op index,
    so a given op is always checked the same way."""
    verdict = Verdict()
    if out.code is None or "Traceback (most recent call last)" in out.stderr:
        last = out.stderr.strip().splitlines()[-1:] or ["?"]
        verdict.add(FAILED, f"raised: {last[0]}")
        return verdict
    if out.code != op.expect:
        verdict.add(FAILED, f"exit {out.code}, expected {op.expect}")
        return verdict
    if op.expect == 2:
        if out.stdout:
            verdict.add(FAILED, "a rejected input printed to stdout")
        if not out.stderr.strip():
            verdict.add(FAILED, "a rejected input printed no message")
        return verdict
    rng = random.Random(op.index)
    try:
        CHECKERS[op.argv[0]](op, out, rng, verdict)
    except _Bad as exc:
        verdict.add(WRONG, str(exc))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        verdict.add(WRONG, f"malformed output: {type(exc).__name__}: {exc}")
    return verdict


# ---------------------------------------------------------------------------
# sweep


def _check_scenario(op, out: Outcome, rng: random.Random, verdict: Verdict) -> None:
    config = op.meta["config"]
    nx, ny = config["grid"]
    summary = _json(out.stderr)
    if summary["result"]["cells"] != nx * ny:
        raise _Bad(f"summary reports {summary['result']['cells']} cells, expected {nx * ny}")
    lines = out.stdout.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        raise _Bad("CSV header or trailing newline missing")
    rows = lines[1:-1]
    if len(rows) != nx * ny:
        raise _Bad(f"{len(rows)} CSV rows, expected {nx * ny}")
    cases: Counter[str] = Counter()
    parsed = []
    for line in rows:
        fields = line.split(",")
        if len(fields) != 7 or fields[6] not in CASE_LABELS:
            raise _Bad(f"bad CSV row {line!r}")
        values = [_finite(v) for v in fields[:6]]
        if values[4] < values[5] - 1e-12 * max(1.0, values[5]):
            raise _Bad(f"sumrate_jam < sumrate_nojam in row {line!r}")
        cases[fields[6]] += 1
        parsed.append((values, fields[6]))
    verdict.facts["cases"] = cases

    scenario = mw.ScenarioConfig.from_dict(config)
    width, height = config["area"]
    for r in rng.sample(range(nx * ny), min(SAMPLED_CELLS, nx * ny)):
        j, i = divmod(r, nx)
        x, y = (i + 0.5) * width / nx, (j + 0.5) * height / ny
        std = mw.standardize(mw.gains_at(scenario, (x, y)))
        jam = mw.optimal_powers_jam(std.h, std.pmax)
        nojam = mw.optimal_powers_sum(std.h, std.pmax)
        values, case = parsed[r]
        ref = (x, y, jam.p[0], jam.p[1], jam.achieved_rate, nojam.achieved_rate)
        if case != jam.case_label or not all(_close(v, e, MATCH_TOL) for v, e in zip(values, ref)):
            raise _Bad(f"cell {r}: CSV {values} {case}, re-solved {ref} {jam.case_label}")


# ---------------------------------------------------------------------------
# boundary and constraint sets


def _corners(region) -> list[tuple[float, float]]:
    """Corners of a two-user set over total rates: the box-simplex
    {0 <= R1 <= u1, 0 <= R2 <= u2, R1 + R2 <= u12}."""
    caps = {1: math.inf, 2: math.inf, 3: math.inf}
    for row in region.rows:
        mask = row.subset_mask()
        caps[mask] = min(caps[mask], row.rhs)
    u1, u2, u12 = caps[1], caps[2], caps[3]
    x, y = min(u1, u12), min(u2, u12)
    return [(0.0, 0.0), (x, 0.0), (0.0, y), (x, min(u2, u12 - x)), (min(u1, u12 - y), y)]


def _family_sets(kind: str, std, p: tuple[float, float], alpha: float):
    if kind in ("individual", "union-i-t"):
        yield mw.individual_region_at(std, p)
    if kind == "collective":
        yield mw.collective_region_at(std, p)
    if kind in ("outer-individual", "outer-collective"):
        yield mw.outer_region_at(std, p, kind.replace("outer-", ""))
    if kind in ("tdma", "union-i-t"):
        yield mw.tdma_region_at(std, p, (alpha, 1.0 - alpha))


def _check_region(op, out: Outcome, rng: random.Random, verdict: Verdict) -> None:
    if "--power" in op.argv:
        _check_constraint_set(op, out)
        return
    m = op.meta
    if m["csv"]:
        lines = out.stdout.split("\n")
        if lines[0] != "R1,R2" or lines[-1] != "":
            raise _Bad("CSV header or trailing newline missing")
        vertices = [tuple(_finite(v) for v in line.split(",")) for line in lines[1:-1]]
        count = 0
    else:
        boundary = _json(out.stdout)["result"]["boundary"]
        vertices = [tuple(_finite(float(v)) for v in vertex) for vertex in boundary["vertices"]]
        count = int(boundary["generator_count"])
    if not vertices or any(len(v) != 2 or min(v) < 0.0 for v in vertices):
        raise _Bad(f"vertices must be nonnegative pairs, got {vertices[:4]}")
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x1 > x0 or y1 < y0:
            raise _Bad(f"vertices not ordered from the R1 axis to the R2 axis: {(x0, y0)} -> {(x1, y1)}")
    verdict.facts["vertices"] = len(vertices)

    hull = mw.RegionBoundary2D(vertices=tuple(vertices), generator_count=count)
    std = mw.StandardChannel(num_users=2, h=tuple(m["h"]), pmax=tuple(m["pmax"]))
    p1s = np.linspace(0.0, m["pmax"][0], m["res"])
    p2s = np.linspace(0.0, m["pmax"][1], m["res"])
    alphas = np.linspace(0.0, 1.0, m["alpha_res"])
    for _ in range(SAMPLED_POWERS):
        p = (float(rng.choice(p1s)), float(rng.choice(p2s)))
        alpha = float(rng.choice(alphas))
        for region in _family_sets(m["kind"], std, p, alpha):
            for corner in _corners(mw.delta_region(region, m["delta"])):
                if not hull.contains(corner):
                    raise _Bad(f"corner {corner} of the {m['kind']} set at power {p} "
                               f"lies outside the boundary")


def _reference_set(m, alpha=None):
    """The fixed-power set that op meta ``m`` asks for, rebuilt from the
    public region functions."""
    std = mw.StandardChannel(num_users=m["k"], h=tuple(m["h"]), pmax=tuple(m["pmax"]))
    kind, power = m["kind"], m["power"]
    if kind == "individual":
        region = mw.individual_region_at(std, power)
    elif kind == "collective":
        region = mw.collective_region_at(std, power)
    elif kind == "tdma":
        region = mw.tdma_region_at(std, power, alpha)
    else:
        region = mw.outer_region_at(std, power, kind.replace("outer-", ""))
    if m["delta"] is not None:
        region = mw.delta_region(region, m["delta"])
    return region


def _match_rows(rows: list[dict], reference) -> None:
    """Each reported row must have the reference row's subset, kind and
    right-hand side, in the same order."""
    expected = [(sum(1 << (k - 1) for k in r.subset), r.kind, r.rhs) for r in reference.rows]
    got = [(int(r["subset_mask"]), r["kind"], _finite(r["rhs"])) for r in rows]
    if len(got) != len(expected):
        raise _Bad(f"{len(got)} constraint rows, expected {len(expected)}")
    for (mask, kind, rhs), (e_mask, e_kind, e_rhs) in zip(got, expected):
        if mask != e_mask or kind != e_kind or not _close(rhs, e_rhs, MATCH_TOL):
            raise _Bad(f"row {kind} mask {mask} rhs {rhs}; expected {e_kind} mask {e_mask} rhs {e_rhs}")


def _check_constraint_set(op, out: Outcome) -> None:
    rows = _json(out.stdout)["result"]["constraint_set"]["rows"]
    _match_rows(rows, _reference_set(op.meta))


def _check_tdma(op, out: Outcome, rng: random.Random, verdict: Verdict) -> None:
    result = _json(out.stdout)["result"]
    alpha = [_finite(a) for a in result["optimal_alpha"]]
    power = op.meta["power"]
    # the optimal time shares are proportional to the powers; the reference
    # set uses the exact shares, since the printed ones are rounded and need
    # not sum to one within the package's tolerance
    shares = [p / sum(power) for p in power]
    if len(alpha) != len(power) or not all(_close(a, e, MATCH_TOL) for a, e in zip(alpha, shares)):
        raise _Bad(f"time shares {alpha} are not proportional to the powers {power}")
    _match_rows(result["region"]["rows"], _reference_set(op.meta, shares))


# ---------------------------------------------------------------------------
# requests


def _check_standardize(op, out: Outcome, rng: random.Random, verdict: Verdict) -> None:
    raw = op.meta["raw"]
    std = _json(out.stdout)["result"]["standard_channel"]
    for k in range(raw["num_users"]):
        h = raw["gains_tap"][k] * raw["noise_var_main"] / (raw["gains_main"][k] * raw["noise_var_tap"])
        pmax = raw["gains_main"][k] / raw["noise_var_main"] * raw["power_limits"][k]
        if not (_close(std["h"][k], h, MATCH_TOL) and _close(std["pmax"][k], pmax, MATCH_TOL)):
            raise _Bad(f"user {k + 1}: standard form {std['h'][k]}, {std['pmax'][k]}; "
                       f"expected {h}, {pmax}")


def _check_power_opt(op, out: Outcome, rng: random.Random, verdict: Verdict) -> None:
    result = _json(out.stdout)["result"]
    gap = float(result["verify_gap"])
    verdict.facts["verify_gap"] = gap
    if not gap <= VERIFY_GAP_TOL:
        raise _Bad(f"verify_gap {gap} above {VERIFY_GAP_TOL}")


def _split_rows(m) -> list[tuple[frozenset[int], float]]:
    std = mw.StandardChannel(num_users=m["k"], h=tuple(m["h"]), pmax=tuple(m["pmax"]))
    region = mw.collective_region_at(std, m["power"])
    return [(frozenset(r.subset), r.rhs) for r in region.mac_rows()]


def _check_split(op, out: Outcome, rng: random.Random, verdict: Verdict) -> None:
    m = op.meta
    k, power, h = m["k"], m["power"], m["h"]
    result = _json(out.stdout)["result"]
    rows = _split_rows(m)
    used = [s + o for s, o in zip(m["secret"], m["open"])]
    if m["kind"] == "collective":
        target = mw.cw(power, h, range(1, k + 1)) - sum(m["open"])
    else:
        # each user with a positive secret rate fills its own eavesdropper rate
        fixed = [mw.cw(power, h, {i + 1}) - m["open"][i] if m["secret"][i] > 0.0 else 0.0
                 for i in range(k)]
    if result["feasible"]:
        x = [float(v) for v in result["extra"]]
        if len(x) != k or min(x) < -1e-12:
            raise _Bad(f"witness {x} is not {k} nonnegative rates")
        for subset, rhs in rows:
            total = sum(used[i - 1] + x[i - 1] for i in subset)
            if total > rhs + WITNESS_TOL:
                raise _Bad(f"witness violates MAC{sorted(subset)}: {total} > {rhs}")
        if m["kind"] == "collective":
            if abs(sum(x) - target) > WITNESS_TOL:
                raise _Bad(f"witness sums to {sum(x)}, must fill {target}")
        elif any(abs(a - b) > WITNESS_TOL for a, b in zip(x, fixed)):
            raise _Bad(f"witness {x} does not fill the per-user eavesdropper rates {fixed}")
        return
    # infeasible: confirm with an independent feasibility LP
    if m["kind"] == "collective":
        if target < 0.0:
            return
        res = linprog(
            c=np.zeros(k),
            A_ub=[[1.0 if i + 1 in s else 0.0 for i in range(k)] for s, _ in rows],
            b_ub=[rhs - sum(used[i - 1] for i in s) for s, rhs in rows],
            A_eq=[[1.0] * k], b_eq=[target],
            bounds=[(0.0, None)] * k, method="highs",
        )
        if res.status == 0:
            raise _Bad(f"reported infeasible, but {list(res.x)} is a witness")
        return
    if min(fixed) < -1e-12:
        return
    if all(sum(used[i - 1] + fixed[i - 1] for i in s) <= rhs + WITNESS_TOL for s, rhs in rows):
        raise _Bad(f"reported infeasible, but {fixed} satisfies every MAC row")


CHECKERS = {
    "scenario": _check_scenario,
    "region": _check_region,
    "tdma": _check_tdma,
    "standardize": _check_standardize,
    "sumopt": _check_power_opt,
    "jam": _check_power_opt,
    "split": _check_split,
}
