"""Seeded input generators for the three benchmark workloads.

Every workload is an endless stream of ops, produced block by block.  A
block has a fixed composition (which request classes, which sizes) in a
shuffled order; only the continuous parameters are random.  Fixing the
composition keeps the latency percentiles at the same place in the size
mix from seed to seed, while the continuous draws keep any two inputs
distinct, so a result cache would find nothing to reuse.

Each block draws from its own ``random.Random`` keyed by workload, seed and
block index, so op ``i`` is the same whatever was consumed before it.
The program only ever sees the generated argv lists (and, for configs, the
generated JSON files); nothing here imports the package under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterator

WORKLOADS = ("sweep", "boundary", "requests")

# scratch files (scenario and channel configs) live here, relative to the
# checkout root that the benchmark runs from
WORK_DIR = ".perfbench_tmp"

BOUNDARY_KINDS = (
    "individual", "collective", "tdma", "outer-individual", "outer-collective", "union-i-t",
)
OUTER_KINDS = ("outer-individual", "outer-collective")


@dataclass
class Op:
    """One CLI invocation and what the output checker needs to judge it."""

    index: int
    klass: str
    argv: list[str]
    expect: int = 0
    cells: int = 0
    meta: dict[str, Any] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _nums(xs) -> str:
    return ",".join(_num(x) for x in xs)


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _g(x: float) -> float:
    return 0.5 * math.log2(1.0 + x)


# ---------------------------------------------------------------------------
# sweep: scenario configs

SWEEP_BLOCK = 5
SIDE_MIN, SIDE_MAX = 24, 96
AREA = 100.0


def _cells_quantile(p: float) -> float:
    """Quantile of nx*ny when both sides are log-uniform over
    [SIDE_MIN, SIDE_MAX]: log(nx*ny) is then triangular."""
    x = math.sqrt(p / 2.0) if p < 0.5 else 1.0 - math.sqrt((1.0 - p) / 2.0)
    return SIDE_MIN**2 * (SIDE_MAX / SIDE_MIN) ** (2.0 * x)


def _grid_for(rng: random.Random, cells: float) -> tuple[int, int]:
    lo = max(SIDE_MIN, cells / SIDE_MAX)
    hi = min(SIDE_MAX, cells / SIDE_MIN)
    nx = int(round(_loguniform(rng, lo, hi)))
    ny = int(round(min(SIDE_MAX, max(SIDE_MIN, cells / nx))))
    return nx, ny


def _strata(rng: random.Random, n: int) -> list[float]:
    """One jittered draw from each of n equal strata of [0, 1), shuffled."""
    out = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(out)
    return out


def scenario_config(rng: random.Random, grid: tuple[int, int], u_tap: float, u_exp: float) -> dict:
    bx, by = rng.uniform(25.0, 75.0), rng.uniform(25.0, 75.0)
    users = []
    for _ in range(2):
        d, a = rng.uniform(8.0, 30.0), rng.uniform(0.0, 2.0 * math.pi)
        users.append([min(AREA, max(0.0, bx + d * math.cos(a))),
                      min(AREA, max(0.0, by + d * math.sin(a)))])
    return {
        "grid": list(grid),
        "area": [AREA, AREA],
        "base_station": [bx, by],
        "users": users,
        "power_limits": [_loguniform(rng, 1.0, 1e4), _loguniform(rng, 1.0, 1e4)],
        "noise_var_main": 1.0,
        "noise_var_tap": 0.1 * 100.0**u_tap,
        "pathloss_exponent": 2.0 + 2.0 * u_exp,
        "min_distance": 1.0,
    }


def _sweep_op(index: int, config: dict) -> Op:
    path = f"{WORK_DIR}/sweep-{index}.json"
    nx, ny = config["grid"]
    return Op(index, "scenario", ["scenario", "--config", path], cells=nx * ny,
              meta={"config": config}, files={path: json.dumps(config)})


def _sweep_block(rng: random.Random, first: int) -> list[Op]:
    # cell counts sit at the centres of SWEEP_BLOCK equal-probability strata,
    # so with an odd block size p50 and p90 both fall mid-stratum
    sizes = [_cells_quantile((k + 0.5) / SWEEP_BLOCK) for k in range(SWEEP_BLOCK)]
    rng.shuffle(sizes)
    taps, exps = _strata(rng, SWEEP_BLOCK), _strata(rng, SWEEP_BLOCK)
    return [
        _sweep_op(first + k, scenario_config(rng, _grid_for(rng, sizes[k]), taps[k], exps[k]))
        for k in range(SWEEP_BLOCK)
    ]


# ---------------------------------------------------------------------------
# boundary: two-user region boundaries

# per kind and block: (res, eavesdropper regime).  "below": both gains under
# one; "above": one gain above one, so its secrecy rows clamp to zero and the
# hull degenerates.  Outer kinds always get degraded equal gains below one.
BOUNDARY_SLOTS = (
    (51, "below"), (51, "below"), (51, "below"), (51, "above"), (51, "above"),
    (101, "below"), (101, "below"), (101, "above"),
    (201, "below"), (201, "above"),
    (301, "below"),
)
CSV_SLOTS = (1, 6)  # slot positions that ask for --format csv (2 in 11)


def _boundary_op(rng: random.Random, index: int, kind: str, res: int, regime: str,
                 csv: bool) -> Op:
    if kind in OUTER_KINDS:
        c = rng.uniform(0.05, 0.95)
        h = [c, c]
    elif regime == "above":
        h = [rng.uniform(0.05, 0.95), rng.uniform(1.05, 3.0)]
        rng.shuffle(h)
    else:
        h = [rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)]
    pmax = [_loguniform(rng, 0.5, 50.0), _loguniform(rng, 0.5, 50.0)]
    delta = 1.0 if rng.random() < 0.5 else rng.uniform(0.25, 1.0)
    argv = ["region", "--kind", kind, "--h", _nums(h), "--pmax", _nums(pmax),
            "--delta", _num(delta), "--res", str(res)]
    if csv:
        argv += ["--format", "csv"]
    alpha_res = 101
    cells = 0
    if kind != "tdma":
        cells += res * res
    if kind in ("tdma", "union-i-t"):
        cells += 2 * alpha_res * res
    return Op(index, kind, argv, cells=cells,
              meta={"kind": kind, "h": h, "pmax": pmax, "delta": delta, "res": res,
                    "alpha_res": alpha_res, "csv": csv, "regime": regime})


def _boundary_block(rng: random.Random, first: int) -> list[Op]:
    slots = [(kind, res, regime, pos in CSV_SLOTS)
             for kind in BOUNDARY_KINDS
             for pos, (res, regime) in enumerate(BOUNDARY_SLOTS)]
    rng.shuffle(slots)
    return [_boundary_op(rng, first + k, *slot) for k, slot in enumerate(slots)]


# ---------------------------------------------------------------------------
# requests: a mix of small calls

# 25 per block.  The LP class fills the slowest fifth with K = 3,4,4,5,6
# (latency grows with K), so p90 (rank 22.5 of 25) lands in the middle of
# the K=4 pair and p50 (rank 12.5) inside the ~2-4 ms bulk.
REQUEST_SLOTS = (
    ("split_lp", 3), ("split_lp", 4), ("split_lp", 4), ("split_lp", 5), ("split_lp", 6),
    ("oracle", "jam"), ("oracle", "jam"), ("oracle", "jam"), ("oracle", "sumopt"),
    ("oracle", "sumopt"),
    ("constraint", "individual"), ("constraint", "collective"),
    ("constraint", "outer-individual"), ("constraint", "outer-collective"),
    ("constraint", "tdma"),
    ("standardize", "args"), ("standardize", "args"), ("standardize", "config"),
    ("standardize", "config"),
    ("split2", "individual"), ("split2", "individual"), ("split2", "collective"),
    ("split2", "collective"), ("split2", "collective"),
    ("malformed", None),
)


def _powers(rng: random.Random, k: int) -> tuple[list[float], list[float], list[float]]:
    h = [rng.uniform(0.05, 0.9) for _ in range(k)]
    pmax = [_loguniform(rng, 0.5, 20.0) for _ in range(k)]
    power = [m * rng.uniform(0.3, 1.0) for m in pmax]
    return h, pmax, power


def _mac_slack(power, used) -> list[float]:
    """Slack of every MAC row: g(subset power) minus the subset's used rate."""
    k = len(power)
    slack = []
    for mask in range(1, 1 << k):
        users = [i for i in range(k) if mask >> i & 1]
        slack.append(_g(sum(power[i] for i in users)) - sum(used[i] for i in users))
    return slack


def _collective_split_secret(rng: random.Random, h, power, feasible: bool) -> list[float]:
    """Secret rates whose collective split is feasible with margin (every MAC
    row keeps slack once proportional randomization rates are added), or
    infeasible with margin: the secret sum exceeds the collective secrecy
    bound by 5-30 %, so the randomization total cannot fit."""
    leak = [hk * pk for hk, pk in zip(h, power)]
    cw_full = _g(sum(leak))
    secrecy = _g(sum(power)) - cw_full
    weights = [rng.uniform(0.2, 1.0) for _ in power]
    shares = [w / sum(weights) for w in weights]
    if not feasible:
        return [secrecy * rng.uniform(1.05, 1.3) * s for s in shares]
    rand = [cw_full * x / sum(leak) for x in leak]
    frac = rng.uniform(0.2, 0.6)
    for _ in range(40):
        secret = [secrecy * frac * s for s in shares]
        if min(_mac_slack(power, [a + b for a, b in zip(secret, rand)])) > 1e-3:
            return secret
        frac *= 0.7
    return [0.0] * len(power)


def _split_op(rng, index, klass, kind, k, feasible=True) -> Op:
    h, pmax, power = _powers(rng, k)
    if kind == "collective":
        secret = _collective_split_secret(rng, h, power, feasible)
    else:
        # a positive secret rate obliges a user to fill its own eavesdropper
        # rate; infeasible when user 1's secret rate alone overflows MAC{1}
        scale = rng.uniform(0.2, 0.6)
        secret = [scale * (_g(p) - _g(hk * p)) for hk, p in zip(h, power)]
        if not feasible:
            secret[0] = _g(power[0]) * rng.uniform(1.1, 1.5)
    argv = ["split", "--kind", kind, "--h", _nums(h), "--pmax", _nums(pmax),
            "--power", _nums(power), "--secret", _nums(secret)]
    return Op(index, klass, argv,
              meta={"kind": kind, "h": h, "pmax": pmax, "power": power,
                    "secret": secret, "open": [0.0] * k, "k": k})


def _oracle_op(rng, index, which) -> Op:
    # the instance scales the oracle's documented accuracy covers
    h = [rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)]
    pmax = [rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0)]
    res = 201
    argv = [which, "--h", _nums(h), "--pmax", _nums(pmax), "--verify"]
    return Op(index, "oracle", argv, cells=2 * res * res, meta={"which": which, "h": h, "pmax": pmax})


def _constraint_op(rng, index, kind, k) -> Op:
    h, pmax, power = _powers(rng, k)
    if kind in OUTER_KINDS:
        h = [h[0]] * k
    delta = rng.uniform(0.2, 1.0) if rng.random() < 0.5 else None
    if kind == "tdma":
        argv = ["tdma", "--h", _nums(h), "--pmax", _nums(pmax), "--power", _nums(power)]
    else:
        argv = ["region", "--kind", kind, "--h", _nums(h), "--pmax", _nums(pmax),
                "--power", _nums(power)]
    if delta is not None:
        argv += ["--delta", _num(delta)]
    return Op(index, "constraint", argv,
              meta={"kind": kind, "k": k, "h": h, "pmax": pmax, "power": power, "delta": delta})


def _standardize_op(rng, index, form, k) -> Op:
    raw = {
        "num_users": k,
        "gains_main": [_loguniform(rng, 0.01, 10.0) for _ in range(k)],
        "gains_tap": [_loguniform(rng, 0.01, 10.0) for _ in range(k)],
        "noise_var_main": _loguniform(rng, 0.1, 10.0),
        "noise_var_tap": _loguniform(rng, 0.1, 10.0),
        "power_limits": [_loguniform(rng, 0.1, 100.0) for _ in range(k)],
    }
    files = {}
    if form == "config":
        path = f"{WORK_DIR}/channel-{index}.json"
        files[path] = json.dumps(raw)
        argv = ["standardize", "--config", path]
    else:
        argv = ["standardize", "--gains-main", _nums(raw["gains_main"]),
                "--gains-tap", _nums(raw["gains_tap"]),
                "--noise-main", _num(raw["noise_var_main"]),
                "--noise-tap", _num(raw["noise_var_tap"]),
                "--power-limits", _nums(raw["power_limits"])]
    return Op(index, "standardize", argv, meta={"raw": raw}, files=files)


# malformed inputs: (name, build function).  Each must exit 2 with a message on
# stderr and nothing on stdout.
def _bad_scenario(rng, index, mutate) -> tuple[list[str], dict[str, str]]:
    config = scenario_config(rng, (SIDE_MIN, SIDE_MIN), rng.random(), rng.random())
    text = mutate(config)
    path = f"{WORK_DIR}/bad-{index}.json"
    return ["scenario", "--config", path], {path: text if isinstance(text, str) else json.dumps(text)}


def _drop(key):
    def mutate(c):
        del c[key]
        return c
    return mutate


def _set(key, value):
    def mutate(c):
        c[key] = value
        return c
    return mutate


MALFORMED = (
    ("region_non_numeric", lambda rng, i: (
        ["region", "--kind", "individual", "--h", "0.5,abc", "--pmax", "1,1"], {})),
    ("region_length_mismatch", lambda rng, i: (
        ["region", "--kind", "collective", "--h", _nums([rng.uniform(0.1, 0.9)] * 3),
         "--pmax", _nums([rng.uniform(1, 5)] * 2)], {})),
    ("region_delta_zero", lambda rng, i: (
        ["region", "--kind", "individual", "--h", _nums([rng.uniform(0.1, 0.9)] * 2),
         "--pmax", _nums([rng.uniform(1, 5)] * 2), "--delta", "0"], {})),
    ("region_outer_not_degraded", lambda rng, i: (
        ["region", "--kind", "outer-individual", "--h",
         _nums([rng.uniform(0.1, 0.4), rng.uniform(0.5, 0.9)]),
         "--pmax", _nums([rng.uniform(1, 5)] * 2)], {})),
    ("jam_three_users", lambda rng, i: (
        ["jam", "--h", _nums([rng.uniform(0.1, 2)] * 3), "--pmax", _nums([rng.uniform(1, 5)] * 3)], {})),
    ("sumopt_negative_pmax", lambda rng, i: (
        ["sumopt", "--h", _nums([rng.uniform(0.1, 2)] * 2), "--pmax", _nums([-rng.uniform(1, 5), 1.0])], {})),
    ("split_power_above_limit", lambda rng, i: (
        ["split", "--kind", "collective", "--h", "0.5,0.5", "--pmax", "1,1",
         "--power", _nums([1.0 + rng.uniform(0.5, 2), 1.0]), "--secret", "0.1,0.1"], {})),
    ("tdma_alpha_sum", lambda rng, i: (
        ["tdma", "--h", "0.5,0.5", "--pmax", "2,2", "--power", "1,1",
         "--alpha", _nums([rng.uniform(0.6, 0.9), rng.uniform(0.6, 0.9)])], {})),
    ("standardize_missing_args", lambda rng, i: (
        ["standardize", "--gains-main", _nums([rng.uniform(0.5, 2)] * 2)], {})),
    ("scenario_missing_key", lambda rng, i: _bad_scenario(rng, i, _drop("noise_var_tap"))),
    ("scenario_user_outside", lambda rng, i: _bad_scenario(
        rng, i, _set("users", [[AREA + rng.uniform(1, 10), 10.0], [20.0, 20.0]]))),
    ("scenario_bad_json", lambda rng, i: _bad_scenario(rng, i, lambda c: json.dumps(c)[:-3])),
)

# malformed scenario configs that the seed lets through as a raw ValueError
# traceback instead of exit 2 (ROADMAP item 5).  They stay out of the timed
# stream, which holds no failing op, so that a run's failure count does not
# depend on how many blocks it completes.  run.py runs each of them once per
# run, untimed and apart from the tally, and reports which still fail.
KNOWN_DEFECTS = (
    ("scenario_grid_length", lambda rng, i: _bad_scenario(rng, i, _set("grid", [24, 24, 24]))),
    ("scenario_area_length", lambda rng, i: _bad_scenario(rng, i, _set("area", [AREA, AREA, AREA]))),
    ("scenario_noise_text", lambda rng, i: _bad_scenario(rng, i, _set("noise_var_main", "loud"))),
    ("scenario_exponent_text", lambda rng, i: _bad_scenario(rng, i, _set("pathloss_exponent", "steep"))),
)


def _malformed_op(rng, index, entry) -> Op:
    name, build = entry
    argv, files = build(rng, index)
    return Op(index, "malformed", argv, expect=2, meta={"malformed": name}, files=files)


def known_defect_ops(seed: int) -> list[Op]:
    """One op of each KNOWN_DEFECTS shape, indexed far past any timed op."""
    rng = _rng("known-defects", seed, 0)
    return [_malformed_op(rng, 10**9 + k, entry) for k, entry in enumerate(KNOWN_DEFECTS)]


def _request_op(rng, index, block, slot_pos, klass, param) -> Op:
    if klass == "split_lp":
        return _split_op(rng, index, klass, "collective", param)
    if klass == "oracle":
        return _oracle_op(rng, index, param)
    if klass == "constraint":
        k = 2 + (block + slot_pos) % 4
        return _constraint_op(rng, index, param, k)
    if klass == "standardize":
        return _standardize_op(rng, index, param, 2 + (block + slot_pos) % 3)
    if klass == "split2":
        # one infeasible request per kind and block
        feasible = slot_pos not in (19, 23)
        return _split_op(rng, index, klass, param, 2, feasible)
    return _malformed_op(rng, index, MALFORMED[block % len(MALFORMED)])


def _requests_block(rng: random.Random, first: int, block: int) -> list[Op]:
    slots = list(enumerate(REQUEST_SLOTS))
    rng.shuffle(slots)
    return [_request_op(rng, first + k, block, pos, klass, param)
            for k, (pos, (klass, param)) in enumerate(slots)]


# ---------------------------------------------------------------------------

BLOCK_SIZE = {
    "sweep": SWEEP_BLOCK,
    "boundary": len(BOUNDARY_KINDS) * len(BOUNDARY_SLOTS),
    "requests": len(REQUEST_SLOTS),
}


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def block_ops(workload: str, seed: int, block: int) -> list[Op]:
    rng = _rng(workload, seed, block)
    first = block * BLOCK_SIZE[workload]
    if workload == "sweep":
        return _sweep_block(rng, first)
    if workload == "boundary":
        return _boundary_block(rng, first)
    if workload == "requests":
        return _requests_block(rng, first, block)
    raise ValueError(f"unknown workload {workload!r}")


def stream(workload: str, seed: int) -> Iterator[Op]:
    """The endless op stream of a workload."""
    block = 0
    while True:
        yield from block_ops(workload, seed, block)
        block += 1


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    return list(islice(stream(workload, seed), count))


def _size(op: Op) -> tuple:
    # at one res, a boundary with an eavesdropper gain above one is the
    # smaller op: its secrecy rows clamp to zero and the hull degenerates
    return (op.cells, op.meta.get("k", 0), op.meta.get("regime") != "above",
            len(" ".join(op.argv)))


def _per_class(ops: list[Op], largest: bool) -> list[Op]:
    """One op per class (kind for boundary): its smallest or its largest."""
    chosen: dict[str, Op] = {}
    for op in ops:
        best = chosen.get(op.klass)
        if best is None or (_size(op) > _size(best) if largest else _size(op) < _size(best)):
            chosen[op.klass] = op
    return list(chosen.values())


def setup_ops(workload: str, seed: int) -> list[Op]:
    """One op of each class at its smallest size in the first block; what a
    fresh interpreter runs to measure set-up time."""
    return _per_class(block_ops(workload, seed, 0), largest=False)


def rss_ops(workload: str, seed: int) -> list[Op]:
    """One op of each class at its largest size in the first block; what a
    fresh interpreter runs to measure peak memory."""
    return _per_class(block_ops(workload, seed, 0), largest=True)
