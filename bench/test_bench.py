"""Tests of the benchmark itself: checks pass on real ops and catch wrong ones.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OPS = 3


def _flipped(direction: str, key: str) -> dict:
    expect = copy.deepcopy(workloads.EXPECT)
    expect[direction][key] = not expect[direction][key]
    return expect


def _run_ops(wl, n: int = OPS, start: int = 0):
    *_, problems = run.timed_phase(wl, run.Clock(), start, 0.0, n, lambda i, x: wl.op(x))
    return problems


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", ["decide", "oracle", "cli"])
def test_every_check_passes(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name].setup(seed, tmp_path)
    problems = _run_ops(wl)
    assert run.tally(problems) == (OPS, [])


@pytest.mark.parametrize("name", ["oracle", "cli"])
def test_ladder_checks_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name].setup(3, tmp_path)
    assert len(wl.data["ladder"]) == len(wl.LADDER)
    assert len(wl.data["ladder"]) == wl.LADDER_DRAWS
    for draw in wl.data["ladder"]:
        assert len(draw) == len(wl.LADDER)
        for inputs in draw:
            assert wl.ladder_check(wl.ladder_op(inputs)) == []


@pytest.mark.parametrize("name, direction, key", [
    ("decide", "FG", "ssd"),
    ("decide", "GF", "fsd"),
    ("oracle", "FG", "mfsd"),
    ("cli", "FG", "fsd"),
])
def test_wrong_expected_verdict_is_a_failure(name, direction, key, tmp_path):
    wl = workloads.WORKLOADS[name].setup(1, tmp_path, expect=_flipped(direction, key))
    if name == "cli":
        ops = wl.data["ops"]
        start = next(i for i, op in enumerate(ops)
                     if op.direction == direction and op.command == key)
        problems = _run_ops(wl, 1, start)
    else:
        problems = _run_ops(wl)
    attempted, failed = run.tally(problems)
    assert attempted == len(failed) > 0


def test_wrong_exit_code_is_a_failure(tmp_path):
    # FSD fails on (F, G), so the CLI exits 1; expecting "holds" means exit 0.
    wl = workloads.Cli.setup(1, tmp_path, expect=_flipped("FG", "fsd"))
    op = next(op for op in wl.data["ops"]
              if op.direction == "FG" and op.command == "fsd" and op.fmt == "text")
    result = wl.op(op)
    assert result[1] == 1
    assert wl.exit_mismatch(result)
    assert any("exit 1, expected 0" in p for p in wl.check(result))


def test_in_process_cli_matches_subprocess(tmp_path):
    wl = workloads.Cli.setup(2, tmp_path)
    for op in wl.data["ops"][:4]:
        _, code, out = wl.op_in_process(op)
        _, sub_code, sub_out = wl.op(op)
        assert (code, out) == (sub_code, sub_out)


def test_trace_accounts_for_op_time_and_uninstalls(tmp_path):
    wl = workloads.Decide.setup(1, tmp_path)
    original = wl.sd.check_ssd, wl.sd.dominance.signed_parts, wl.sd.PiecewiseFn.sub
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wl.sd.dominance.signed_parts is not original[1]
        _, _, walls, problems = run.timed_phase(
            wl, run.Clock(), 0, 0.0, 2, lambda i, x: tracer.op(i, wl.op, x))
    finally:
        tracer.uninstall()
    assert (wl.sd.check_ssd, wl.sd.dominance.signed_parts, wl.sd.PiecewiseFn.sub) == original
    assert run.tally(problems) == (2, [])
    m = tracer.layer_metrics(2)
    accounted = m["trace.glue_s"][0] + sum(
        m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert accounted == pytest.approx(sum(walls) / 2, rel=0.05)
    assert m["gamma.min_gamma.not_ordered"][0] == 1.0   # the (G, F) direction
    assert m["piecewise.sub.repeat_ratio"][0] > 0.5
    assert m["utility.make_base_mf.calls"][0] == 0.0
    roots = [s for s in tracer.spans if s[1] == "bench.op"]
    assert len(roots) == 2 and all(s[4] is None for s in roots)


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
