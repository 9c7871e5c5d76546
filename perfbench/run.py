"""Benchmark for macwiretap.

    python3 perfbench/run.py --workload {sweep,boundary,requests} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from ./src and
nothing is installed or built.  One process, one thread, one client in a
closed loop: it feeds seeded, generated argv lists to
``macwiretap.cli.main(argv)`` in-process, capturing stdout and stderr and
catching ``SystemExit`` and any other exception.  Each call is timed; its
output is checked afterwards, outside the timed section, against references
built independently from the public API (see checks.py).  Every tenth op is
re-run untimed and must repeat byte for byte.

Workloads (inputs in workloads.py):
  sweep     scenario sweeps: one closed-form solve per grid cell, CSV out
  boundary  region boundaries: power-grid candidates and a convex hull
  requests  a mix of small calls: LP splits, oracle checks, constraint
            sets, standard forms, closed-form splits, malformed inputs
No timed op fails at the seed.  The malformed scenario configs that the
seed lets through as a raw traceback (workloads.KNOWN_DEFECTS, ROADMAP item
5) are run once per run, untimed and outside attempted/failed, and the ones
that still fail are listed.

--trace 0 reports the end-to-end metrics.  Durations are in reference
seconds (pace.py): each measured wall time is scaled by how fast the shared
machine runs a fixed reference task at that moment, so that runs made at
different times compare; the unscaled figures are printed too.  The loop
runs until the unscaled busy time reaches --seconds (so a run lasts as long
on a slow machine as on a fast one), at least MIN_OPS ops are done and the
current block of the workload is complete, so every run holds whole
blocks:
  ops_per_s    ops completed per second of busy time (time inside main)
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency (nearest rank; the sample count
               and the number of samples above it are printed)
  cells_per_s  grid cells per second of busy time: eavesdropper cells
               written (sweep), power and time-share grid points evaluated
               (boundary), oracle grid points (requests)
  setup_s      median launch time of SETUP_LAUNCHES fresh interpreters that
               import macwiretap.cli and run one op of each class of the
               workload at its smallest size (lazy imports included); the
               launches are spread over the timed loop, between ops, and
               each is scaled by a reference launch made just before it
  peak_rss_mb  peak RSS (VmHWM) of a fresh interpreter running one op of
               each class at its largest size
The error rate (failed / attempted) is printed as well, with the failures
listed by request class; it is also the result's failed/attempted pair.

--trace 1 runs each op of a fixed list twice, untraced and traced
(spans.py), alternating which goes first, and reports per-layer figures per
op (span times unscaled); counts repeat exactly for a seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``correct`` is false when any output disagreed with a reference
or did not repeat; an op that crashed or exited with the wrong code counts
as failed without making the result incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

MIN_OPS = 110           # at least ten samples above p90
RERUN_EVERY = 10
SETUP_LAUNCHES = 9
LAUNCH_EVERY_S = 1.5
LOOP_WALL_CAP_S = 120.0
CHILD_TIMEOUT_S = 60.0
# traced-run length in blocks per second of --seconds (at least one block),
# so that a traced run (two passes) takes no longer than a timed one; at the
# seed commit one pass takes 2-3 s on sweep and requests, and one boundary
# block about 13 s
TRACE_BLOCKS_PER_S = {"sweep": 0.45, "boundary": 0.05, "requests": 3.0}

REGION_AT = ("individual_region_at", "collective_region_at", "tdma_region_at",
             "outer_region_at", "delta_region")


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "macwiretap" / "cli.py").is_file():
        _fail(f"no macwiretap sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from macwiretap import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported macwiretap from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# one op


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def call(cli, argv: list[str], outcome_type):
    """Time one in-process CLI call; returns (seconds, outcome)."""
    out, err = io.StringIO(), io.StringIO()
    exc_info = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = _exit_code(exc.code)
        except Exception:
            code = None
            exc_info = sys.exc_info()
        t1 = time.perf_counter()
    if exc_info is not None:
        err.write("".join(traceback.format_exception(*exc_info)))
    return t1 - t0, outcome_type(code, out.getvalue(), err.getvalue())


def _repeatable(outcome) -> tuple:
    """What a re-run must repeat byte for byte.  Of an escaped exception only
    the last line counts: the traceback above it shows this benchmark's frames,
    which differ between traced and untraced calls."""
    if outcome.code is None:
        return None, outcome.stdout, outcome.stderr.strip().splitlines()[-1:]
    return outcome.code, outcome.stdout, outcome.stderr


def write_files(ops) -> None:
    for op in ops:
        for path, text in op.files.items():
            Path(path).write_text(text, encoding="utf-8")


class Runner:
    """Runs ops against the package and keeps the tally."""

    def __init__(self, cli, checks) -> None:
        self.cli = cli
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter[str] = Counter()
        self.examples: dict[str, str] = {}

    def run(self, op, tracer=None):
        """Run, check and tally one op; returns (seconds, outcome, verdict)."""
        write_files([op])
        try:
            if tracer is not None:
                tracer.current_op = op.index
                tracer.active = True
            try:
                seconds, outcome = call(self.cli, op.argv, self.checks.Outcome)
            finally:
                if tracer is not None:
                    tracer.active = False
            verdict = self.checks.check(op, outcome)
            if op.index % RERUN_EVERY == 0:
                _, again = call(self.cli, op.argv, self.checks.Outcome)
                if _repeatable(again) != _repeatable(outcome):
                    verdict.add(self.checks.WRONG, "a re-run of the same argv printed different bytes")
        finally:
            for path in op.files:
                Path(path).unlink(missing_ok=True)
        self.attempted += 1
        if verdict.failed:
            self.failed += 1
            self.wrong += verdict.wrong
            label = op.klass + (f"/{op.meta['malformed']}" if "malformed" in op.meta else "")
            self.failures[label] += 1
            self.examples.setdefault(label, verdict.problems[0][1])
        return seconds, outcome, verdict

    def warm_up(self, ops) -> None:
        """Untimed, unchecked calls that pay lazy imports and first-call costs."""
        write_files(ops)
        for op in ops:
            call(self.cli, op.argv, self.checks.Outcome)

    def report(self) -> None:
        rate = self.failed / self.attempted if self.attempted else 0.0
        print(f"error_rate {rate:.6f} ratio ({self.failed} of {self.attempted} ops failed, "
              f"{self.wrong} with wrong output)")
        self.list_failures()

    def list_failures(self) -> None:
        for label, count in sorted(self.failures.items()):
            print(f"  failed {label}: {count}  e.g. {self.examples[label][:160]}")


# ---------------------------------------------------------------------------
# child processes: set-up time and peak memory


def _launch(ops, tag: str) -> tuple[float, dict]:
    write_files(ops)
    argv_file = Path(workloads.WORK_DIR) / f"{tag}-argv.json"
    argv_file.write_text(json.dumps([op.argv for op in ops]), encoding="utf-8")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), str(argv_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = [op.expect for op in ops]
    if result["codes"] != expected:
        print(f"note: {tag} probe exit codes {result['codes']}, expected {expected}")
    return elapsed, result


def measure_peak_rss(workload: str, seed: int) -> float:
    _, result = _launch(workloads.rss_ops(workload, seed), "rss")
    return result["peak_rss_kb"] / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_run(runner: Runner, speed: pace.Pace, workload: str, seed: int, seconds: int) -> dict:
    """The timed loop.  The set-up launches are spread over it, one every
    LAUNCH_EVERY_S of wall time between two ops, so that they sample the
    machine's slow and fast phases over the whole run rather than over a
    few seconds; their time is not busy time."""
    block = workloads.BLOCK_SIZE[workload]
    setup_ops = workloads.setup_ops(workload, seed)
    runner.warm_up(setup_ops)
    launches: list[tuple[float, float]] = []  # (seconds, reference launch seconds)

    def launch() -> None:
        reference = pace.reference_launch()
        launches.append((_launch(setup_ops, "setup")[0], reference))

    latencies: list[float] = []
    busy = wall_busy = 0.0
    cells = 0
    wall0 = time.perf_counter()
    for op in workloads.stream(workload, seed):
        due = LAUNCH_EVERY_S * len(launches)
        if len(launches) < SETUP_LAUNCHES and time.perf_counter() - wall0 >= due:
            launch()
        dt, _, _ = runner.run(op)
        wall_busy += dt
        dt = speed.scale(dt)
        latencies.append(dt)
        busy += dt
        cells += op.cells
        n = len(latencies)
        if wall_busy >= seconds and n >= MIN_OPS and n % block == 0:
            break
        if time.perf_counter() - wall0 > LOOP_WALL_CAP_S:
            print(f"note: stopped at the {LOOP_WALL_CAP_S:.0f} s wall cap inside a block")
            break
    while len(launches) < SETUP_LAUNCHES:
        launch()
    print(f"setup launches (s, unscaled): {' '.join(f'{t:.4f}' for t, _ in launches)}")
    print(f"reference launches (s): {' '.join(f'{r:.4f}' for _, r in launches)}")
    lat = sorted(latencies)
    n = len(lat)
    print(f"ops {n} in {busy:.3f} reference s busy ({wall_busy:.3f} s unscaled, "
          f"{time.perf_counter() - wall0:.3f} s wall); latency samples {n}, "
          f"{n - math.ceil(0.9 * n)} above p90; unscaled ops_per_s {n / wall_busy:.4f}")
    return {
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "cells_per_s": (cells / busy, "1/s"),
        "setup_s": (statistics.median(t * pace.LAUNCH_REF_SECONDS / r for t, r in launches), "s"),
    }


def _count_region_boundary(counts: Counter, result) -> None:
    counts["candidates"] += int(getattr(result, "generator_count", 0) or 0)
    counts["vertices"] += len(getattr(result, "vertices", ()) or ())


def trace_ops(workload: str, seed: int, seconds: int) -> list:
    """The fixed op list of a traced run: whole blocks from the stream start."""
    blocks = max(1, round(seconds * TRACE_BLOCKS_PER_S[workload]))
    return workloads.first_ops(workload, seed, blocks * workloads.BLOCK_SIZE[workload])


def traced_run(runner: Runner, speed: pace.Pace, ops: list, warmup: list) -> dict:
    """Run each of ``ops`` untraced and traced, in alternating order so that
    drift cancels in the overhead figure, and reduce the spans to per-op
    figures per layer."""
    runner.warm_up(warmup)
    tracer = spans.Tracer()
    busy_plain = busy_traced = 0.0
    stdout_bytes = 0
    cases: Counter[str] = Counter()
    gap_max = 0.0
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                busy_plain += speed.scale(runner.run(op)[0])
                continue
            tracer.install({"regions.region_boundary_2d": _count_region_boundary})
            try:
                dt, outcome, verdict = runner.run(op, tracer)
            finally:
                tracer.uninstall()
            busy_traced += speed.scale(dt)
            stdout_bytes += len(outcome.stdout.encode())
            cases.update(verdict.facts.get("cases", {}))
            gap_max = max(gap_max, verdict.facts.get("verify_gap", 0.0))

    n = len(ops)
    by_index = {op.index: op for op in ops}
    totals = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "by_op": Counter(), "calls_by_op": Counter()}

    def get(name: str) -> dict:
        return totals.get(name, empty)

    def calls(*names: str) -> tuple[float, str]:
        return sum(get(m)["calls"] for m in names) / n, "count"

    def ms(*names: str, key: str = "s") -> tuple[float, str]:
        return sum(get(m)[key] for m in names) * 1e3 / n, "ms"

    def split_by(names, pick) -> tuple[float, float]:
        """(calls, ms) per op over the spans of ops that ``pick`` accepts."""
        count = seconds_sum = 0.0
        for name in names:
            entry = get(name)
            for op_id in entry["by_op"]:
                if pick(by_index[op_id]):
                    count += entry["calls_by_op"][op_id]
                    seconds_sum += entry["by_op"][op_id]
        return count / n, seconds_sum * 1e3 / n

    metrics: dict[str, tuple[float, str]] = {
        "cli.self_ms": ms("cli.main", key="self_s"),
        "cli.stdout_kb": (stdout_bytes / 1024.0 / n, "kB"),
        "scenario.sweep.self_ms": ms("scenario.sweep", key="self_s"),
        "scenario.to_csv.ms": ms("scenario.ScenarioResult.to_csv"),
        "scenario.from_dict.ms": ms("scenario.ScenarioConfig.from_dict"),
        "scenario.gains_at.calls": calls("scenario.gains_at"),
    }
    for label in ("JAM_AT_ROOT", "JAM_AT_MAX", "NO_JAM", "BOTH_TRANSMIT", "NONE"):
        metrics[f"scenario.cells.{label}"] = (cases[label] / n, "count")
    metrics.update({
        "channel.standardize.calls": calls("channel.standardize"),
        "channel.standardize.ms": ms("channel.standardize"),
        "channel.check_degraded.calls": calls("channel.check_degraded"),
        "optimizer.optimal_powers_jam.calls": calls("optimizer.optimal_powers_jam"),
        "optimizer.optimal_powers_jam.ms": ms("optimizer.optimal_powers_jam"),
        "optimizer.optimal_powers_sum.calls": calls("optimizer.optimal_powers_sum"),
        "optimizer.optimal_powers_sum.ms": ms("optimizer.optimal_powers_sum"),
        "optimizer.jam_roots.calls": calls("optimizer.jam_roots"),
        "optimizer.grid_oracle.calls": calls("optimizer.grid_oracle"),
        "optimizer.grid_oracle.ms": ms("optimizer.grid_oracle"),
        "optimizer.oracle_gap_max": (gap_max, "bits"),
        "regions.region_boundary_2d.ms": ms("regions.region_boundary_2d"),
    })
    boundary = get("regions.region_boundary_2d")["by_op"]
    for kind in workloads.BOUNDARY_KINDS:
        kind_ops = [op for op in ops if "res" in op.meta and op.meta["kind"] == kind]
        total = sum(boundary.get(op.index, 0.0) for op in kind_ops)
        metrics[f"regions.region_boundary_2d.ms.{kind}"] = (
            total * 1e3 / len(kind_ops) if kind_ops else 0.0, "ms")
    candidates, vertices = tracer.counts["candidates"], tracer.counts["vertices"]
    metrics["regions.candidates"] = (candidates / n, "count")
    metrics["regions.vertices"] = (vertices / n, "count")
    metrics["regions.vertex_yield"] = (vertices / candidates if candidates else 0.0, "ratio")
    region_at = [f"regions.{name}" for name in REGION_AT]
    metrics["regions.region_at.calls"] = calls(*region_at)
    metrics["regions.region_at.ms"] = ms(*region_at)
    split_names = ("regions.rate_split_individual", "regions.rate_split_collective")
    for label, pick in (("closed_form", lambda op: op.meta.get("k", 0) <= 2),
                        ("lp", lambda op: op.meta.get("k", 0) >= 3)):
        c, t = split_by(split_names, pick)
        metrics[f"regions.rate_split.calls.{label}"] = (c, "count")
        metrics[f"regions.rate_split.ms.{label}"] = (t, "ms")
    rates = [name for name in totals if name.startswith("rates.")]
    metrics["rates.calls"] = calls(*rates)
    metrics["rates.ms"] = ms(*rates)
    metrics["trace.overhead_pct"] = ((busy_traced / busy_plain - 1.0) * 100.0, "%")
    print(f"traced ops {n} (x2: untraced {busy_plain:.3f}, traced {busy_traced:.3f} "
          f"reference s busy), {len(tracer.start)} spans")
    return metrics


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = _import_package()
    import checks

    os.chdir(ROOT)
    warnings.simplefilter("always")  # a warning prints on every call, so re-runs repeat
    work = Path(workloads.WORK_DIR)
    work.mkdir(exist_ok=True)
    runner = Runner(cli, checks)
    speed = pace.Pace()
    try:
        if args.trace:
            ops = trace_ops(args.workload, args.seed, args.seconds)
            metrics = traced_run(runner, speed, ops, workloads.setup_ops(args.workload, args.seed))
        else:
            rss = measure_peak_rss(args.workload, args.seed)
            metrics = timed_run(runner, speed, args.workload, args.seed, args.seconds)
            metrics["peak_rss_mb"] = (rss, "MB")
        defects = Runner(cli, checks)
        for op in workloads.known_defect_ops(args.seed):
            defects.run(op)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    runner.report()
    print(f"known defects, untimed and not in the tally (ROADMAP item 5): {defects.failed} of "
          f"{defects.attempted} malformed scenario configs still fail")
    defects.list_failures()
    print(json.dumps({
        "correct": runner.wrong == 0 and defects.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
