"""Self-tests of the benchmark: reproducible inputs and counts, a checker
that catches corrupted output on every workload, and a clean refusal to run
outside a checkout.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

cli = run._import_package()

import checks  # noqa: E402  (needs the package on sys.path)
import pace  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".calls.closed_form", ".calls.lp")
COUNT_NAMES = ("regions.candidates", "regions.vertices")


@pytest.fixture()
def in_checkout(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    work = Path(workloads.WORK_DIR)
    work.mkdir(exist_ok=True)
    yield
    shutil.rmtree(work, ignore_errors=True)


def _inputs(workload: str, seed: int, count: int):
    return [(op.argv, op.files) for op in workloads.first_ops(workload, seed, count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    count = 2 * workloads.BLOCK_SIZE[workload]
    assert _inputs(workload, 7, count) == _inputs(workload, 7, count)
    first, other = _inputs(workload, 7, count), _inputs(workload, 8, count)
    assert all(a != b for a, b in zip(first, other))


def _small_ops(workload: str, seed: int) -> list:
    if workload == "boundary":
        return [op for op in workloads.block_ops(workload, seed, 0) if op.meta["res"] <= 101][:12]
    return workloads.first_ops(workload, seed, 2 * workloads.BLOCK_SIZE[workload])


def _counts(workload: str, seed: int) -> dict:
    runner = run.Runner(cli, checks)
    metrics = run.traced_run(runner, pace.Pace(), _small_ops(workload, seed), [])
    return {name: value for name, (value, _) in metrics.items()
            if name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES
            or name.startswith("scenario.cells.")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, in_checkout):
    first = _counts(workload, 3)
    assert first == _counts(workload, 3)
    assert any(first.values())


def test_a_removed_name_records_zero_calls(in_checkout, monkeypatch):
    import macwiretap.scenario

    monkeypatch.delattr(macwiretap.scenario, "gains_at")
    counts = _counts("requests", 3)
    assert counts["scenario.gains_at.calls"] == 0
    assert counts["regions.rate_split.calls.lp"] > 0


def _judge(op, outcome):
    return checks.check(op, outcome)


def _first(workload: str, pick) -> tuple:
    op = next(op for op in workloads.stream(workload, 5) if pick(op))
    for path, text in op.files.items():
        Path(path).write_text(text, encoding="utf-8")
    _, outcome = run.call(cli, op.argv, checks.Outcome)
    assert not _judge(op, outcome).failed, _judge(op, outcome).problems
    return op, outcome


def _corrupt_json(outcome, edit):
    envelope = json.loads(outcome.stdout)
    edit(envelope["result"])
    return replace(outcome, stdout=json.dumps(envelope))


def test_checker_flags_a_corrupted_sweep(in_checkout):
    op, outcome = _first("sweep", lambda op: op.cells < 1500)
    lines = outcome.stdout.split("\n")

    def edit(row: int, column: int, value) -> str:
        rows = list(lines)
        fields = rows[row].split(",")
        fields[column] = value(fields[column], fields)
        rows[row] = ",".join(fields)
        return "\n".join(rows)

    below_nojam = edit(7, 4, lambda v, f: repr(float(f[5]) * 0.5 - 1e-3))
    assert _judge(op, replace(outcome, stdout=below_nojam)).wrong
    assert _judge(op, replace(outcome, stdout=edit(9, 2, lambda v, f: "nan"))).wrong
    assert _judge(op, replace(outcome, stdout="\n".join(lines[:-2] + [""]))).wrong
    scaled = [",".join([f[0], f[1], repr(float(f[2]) * 1.001)] + f[3:])
              for f in (line.split(",") for line in lines[1:-1])]
    assert _judge(op, replace(outcome, stdout="\n".join(lines[:1] + scaled + [""]))).wrong


def test_checker_flags_a_corrupted_boundary(in_checkout):
    op, outcome = _first("boundary", lambda op: op.meta["res"] == 51 and not op.meta["csv"]
                         and op.meta["kind"] == "collective" and op.meta["regime"] == "below")

    def shrink(result):
        result["boundary"]["vertices"] = [[0.9 * x, 0.9 * y] for x, y in result["boundary"]["vertices"]]

    assert _judge(op, _corrupt_json(outcome, shrink)).wrong
    assert _judge(op, replace(outcome, stdout=outcome.stdout.replace("]", ", NaN]", 1))).wrong


def test_checker_flags_corrupted_requests(in_checkout):
    op, outcome = _first("requests", lambda op: op.klass == "split_lp")

    def nudge(result):
        result["extra"][0] += 1e-3

    assert _judge(op, _corrupt_json(outcome, nudge)).wrong

    def flip(result):
        result.update(feasible=False, extra=None, binding="MAC{1}")

    assert _judge(op, _corrupt_json(outcome, flip)).wrong

    op, outcome = _first("requests", lambda op: op.klass == "oracle")

    def widen(result):
        result["verify_gap"] = 1e-3

    assert _judge(op, _corrupt_json(outcome, widen)).wrong

    for kind in ("collective", "outer-individual", "tdma"):
        op, outcome = _first("requests", lambda op: op.klass == "constraint"
                             and op.meta["kind"] == kind and op.meta["delta"] is not None)

        def raise_rhs(result):
            region = result.get("constraint_set") or result["region"]
            region["rows"][-1]["rhs"] *= 1.001

        assert _judge(op, _corrupt_json(outcome, raise_rhs)).wrong, kind

        def swap_subsets(result):
            rows = (result.get("constraint_set") or result["region"])["rows"]
            rows[-2]["subset_mask"], rows[-1]["subset_mask"] = rows[-1]["subset_mask"], rows[-2]["subset_mask"]

        assert _judge(op, _corrupt_json(outcome, swap_subsets)).wrong, kind

    op, outcome = _first("requests", lambda op: op.klass == "constraint" and op.meta["kind"] == "tdma")

    def skew(result):
        result["optimal_alpha"] = [0.5, 0.5] + result["optimal_alpha"][2:]

    assert _judge(op, _corrupt_json(outcome, skew)).wrong

    op, outcome = _first("requests", lambda op: op.klass == "standardize")

    def shift(result):
        result["standard_channel"]["h"][0] *= 1.01

    assert _judge(op, _corrupt_json(outcome, shift)).wrong
    assert _judge(op, replace(outcome, code=1)).failed
    assert not _judge(op, replace(outcome, code=1)).wrong


def test_a_crash_on_malformed_input_fails_without_being_wrong(in_checkout):
    op = next(op for op in workloads.stream("requests", 5)
              if op.meta.get("malformed") == "region_delta_zero")
    _, outcome = run.call(cli, op.argv, checks.Outcome)
    assert not _judge(op, outcome).failed
    crashed = checks.Outcome(None, "", "Traceback (most recent call last):\nValueError: x\n")
    verdict = _judge(op, crashed)
    assert verdict.failed and not verdict.wrong


def test_known_defects_stay_out_of_the_stream_and_are_probed_apart(in_checkout):
    names = {name for name, _ in workloads.KNOWN_DEFECTS}
    ops = workloads.first_ops("requests", 5, len(workloads.MALFORMED) * workloads.BLOCK_SIZE["requests"])
    assert not names & {op.meta.get("malformed") for op in ops}
    runner = run.Runner(cli, checks)
    for op in workloads.known_defect_ops(5):
        runner.run(op)
    assert runner.attempted == len(names) and runner.wrong == 0


def test_a_rerun_that_differs_is_wrong(in_checkout):
    class Drifting:
        calls = 0

        def main(self, argv):
            Drifting.calls += 1
            print(json.dumps({"result": {"verify_gap": 0.0}, "n": Drifting.calls}))
            return 0

    op = next(op for op in workloads.stream("requests", 5) if op.klass == "oracle")
    op = replace(op, index=0)
    runner = run.Runner(Drifting(), checks)
    _, _, verdict = runner.run(op)
    assert verdict.wrong and runner.wrong == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "requests", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
