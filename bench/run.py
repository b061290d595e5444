"""sdorder benchmark: one workload per run, every verdict checked.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; the package is imported from ./src. The
load is a closed loop: one caller that waits for each op (one child
process at a time on `cli`). With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it prints the per-layer metrics of a traced phase
and the tracing overhead against an untraced phase of the same length.
The last line of standard output is one JSON object with the results.

Times are in reference seconds (see `Clock`): the wall time of a call,
rescaled by the speed of a fixed reference loop timed around it, so that
the host's drifting speed does not move the figures. The human-readable
lines also give the raw wall-clock medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "out"

MIN_OPS = 100          # so that op_s.p90 has at least 10 samples beyond it
WARMUP_OPS = 2
SETUPS = 5             # setup_s is the median of this many set-ups
HARD_CAP_S = 45.0      # a timed phase never runs past this, however slow
TRACE_MIN_OPS = 8
PROBES = 5             # interpreter and import probes per traced run

REF_ITEMS = 6000
REF_REPEATS = 3
# About the reference loop's time on the baseline host when it is not
# loaded (README.md); a reference second is a wall second on that host.
REF_NOMINAL_S = 0.0008


def _ref_loop() -> float:
    """Fixed pure-Python work like sdorder's own: build, read and free a
    list of small float tuples. The collector is paused, so that no
    collection of the caller's objects lands inside the loop."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        items = [(i * 0.5, i) for i in range(REF_ITEMS)]
        total = 0.0
        for x, _ in items:
            total += x
        del items
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Times calls in reference seconds.

    The host is shared, and its speed for the same Python code drifts by up
    to 1.7x over seconds to minutes, so raw wall times of one commit spread
    by 30-50% between runs. The reference loop slows by about the same
    factor: it is timed (best of REF_REPEATS) before and after every call,
    and the call's wall time is scaled by REF_NOMINAL_S / the faster of
    the two.
    """

    def __init__(self) -> None:
        self.ref = self._measure_ref()
        self.wall = 0.0
        self.scale = 1.0
        self.ref_wall = 0.0   # wall time of the last reference measurement

    @staticmethod
    def _measure_ref() -> float:
        return min(_ref_loop() for _ in range(REF_REPEATS))

    def call(self, fn, *args, **kwargs):
        """Run fn; afterwards self.wall and self.scale describe the call,
        also when it raised."""
        before = self.ref
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.wall = t1 - t0
            self.ref = self._measure_ref()
            self.ref_wall = time.perf_counter() - t1
            self.scale = REF_NOMINAL_S / min(before, self.ref)


def tally(problems: list[list[str]]) -> tuple[int, list[list[str]]]:
    """Ops attempted, and the problem lists of those that failed."""
    return len(problems), [p for p in problems if p]


def timed_phase(wl, clock: Clock, start: int, seconds: float, min_ops: int, run_op):
    """Closed loop of ops from index `start` for `seconds` of wall time.

    The phase runs on until at least `min_ops` ops are done; HARD_CAP_S
    ends it regardless.
    Returns (op times, op-slot times, raw op wall times, problem lists);
    a slot is the op plus preparing its inputs and checking its result,
    and both op and slot times are in reference seconds.
    """
    times, slots, walls, problems = [], [], [], []
    i = start
    t_start = time.perf_counter()
    while True:
        t_slot = time.perf_counter()
        inputs = wl.inputs(i)
        try:
            result = clock.call(run_op, i, inputs)
        except Exception as e:  # an op that raises is a failed op
            problems.append([f"op {i} raised {type(e).__name__}: {e}"])
        else:
            problems.append(wl.check(result))
        # the reference loops ran after the op; leave them out of the slot
        slot = time.perf_counter() - t_slot - clock.ref_wall
        times.append(clock.wall * clock.scale)
        slots.append(slot * clock.scale)
        walls.append(clock.wall)
        i += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= HARD_CAP_S:
            break
        if elapsed >= seconds and len(times) >= min_ops:
            break
    return times, slots, walls, problems


def run_end_to_end(wl, clock: Clock, name: str, seconds: float):
    """Warm-up, the timed closed loop, then the size ladder; no wrappers."""
    run_op = lambda i, inputs: wl.op(inputs)  # noqa: E731
    *_, warm = timed_phase(wl, clock, 0, 0.0, WARMUP_OPS, run_op)
    times, slots, walls, timed = timed_phase(wl, clock, WARMUP_OPS, seconds, MIN_OPS, run_op)
    # On cli the op runs in a child: report the largest child, not this process.
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # One fit per draw, its sizes run back to back, so that a change in the
    # host's speed between draws does not bend a fit; report the median fit.
    draw_times, ladder_problems = [], []
    for draw in wl.data["ladder"]:
        times_by_size = []
        for inputs in draw:
            result = clock.call(wl.ladder_op, inputs)
            times_by_size.append(clock.wall * clock.scale)
            ladder_problems += wl.ladder_check(result)
        draw_times.append(times_by_size)
    size_exp = statistics.median(workloads.fit_slope(wl.LADDER, t) for t in draw_times)
    ladder_times = [statistics.median(ts) for ts in zip(*draw_times)]

    n = len(times)
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "ops_per_s": (n / sum(slots), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "size_exp": (size_exp, "1"),
    }
    notes = {
        "op_s.p50": f"wall-clock {statistics.median(walls):.4g} s",
        "op_s.p90": f"n={n} timed ops; wall-clock {statistics.quantiles(walls, n=10)[8]:.4g} s",
        "size_exp": "ladder " + ", ".join(
            f"{s}: {t:.4g} s" for s, t in zip(wl.LADDER, ladder_times)),
    }
    return metrics, notes, warm + timed + [ladder_problems]


def _probe(clock: Clock, argv: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBES):
        if clock.call(workloads.run_child, argv, env):
            raise RuntimeError(f"{' '.join(argv)} failed")
        times.append(clock.wall * clock.scale)
    return statistics.median(times)


def run_traced(wl, clock: Clock, name: str, seed: int, seconds: float):
    """An untraced then a traced phase of seconds/2 each, ops run in-process."""
    run_op = getattr(wl, "op_in_process", wl.op)
    plain_op = lambda i, inputs: run_op(inputs)  # noqa: E731
    *_, warm = timed_phase(wl, clock, 0, 0.0, WARMUP_OPS, plain_op)
    start = WARMUP_OPS
    _, plain_slots, _, plain_problems = timed_phase(wl, clock, start, seconds / 2.0,
                                                    TRACE_MIN_OPS, plain_op)
    tracer = tracing.Tracer()

    def traced_op(i, inputs):
        result = tracer.op(i, run_op, inputs)
        tracer.counts["cli.stdout_bytes"] += wl.output_bytes(result)
        tracer.counts["cli.exit_mismatch"] += wl.exit_mismatch(result)
        return result

    tracer.install()
    try:
        times, slots, walls, traced_problems = timed_phase(
            wl, clock, start + len(plain_slots), seconds / 2.0, TRACE_MIN_OPS, traced_op)
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    n = len(times)
    # spans are in wall seconds; rescale them as the traced ops were
    scale = sum(times) / sum(walls)
    metrics = {k: (v * scale if unit == "s" else v, unit)
               for k, (v, unit) in tracer.layer_metrics(n).items()}
    metrics["trace.op_s"] = (sum(times) / n, "s")
    metrics["trace.overhead_ratio"] = (
        (n / sum(slots)) / (len(plain_slots) / sum(plain_slots)), "ratio")
    env = {k: v for k, v in os.environ.items() if k != "SDORDER_TOL"}
    env["PYTHONPATH"] = str(SRC)
    interp = _probe(clock, [sys.executable, "-c", "pass"], env)
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (
        _probe(clock, [sys.executable, "-c", "import sdorder.cli"], env) - interp, "s")
    accounted = metrics["trace.glue_s"][0] + sum(
        metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    notes = {
        "trace.op_s": f"layer self times + glue = {accounted:.6g} s; "
                      f"{n} traced ops, {len(plain_slots)} untraced",
        "cli.interp_s": "bare `python -c pass`, site-packages start-up included",
    }
    return metrics, notes, warm + plain_problems + traced_problems


def _print_metrics(metrics: dict, notes: dict) -> None:
    width = max(len(k) for k in metrics)
    for k, (v, unit) in metrics.items():
        note = f"   ({notes[k]})" if k in notes else ""
        print(f"{k:<{width}}  {v:.6g} {unit}{note}")


def run(name: str, seed: int, seconds: float, traced: bool) -> int:
    W = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    clock = Clock()
    try:
        setup_times = []
        for _ in range(SETUPS):
            gc.collect()   # not inside the timing: the last set-up's modules
            wl = clock.call(W.setup, seed, workdir)
            setup_times.append(clock.wall * clock.scale)
        gc.collect()
        if traced:
            metrics, notes, problems = run_traced(wl, clock, name, seed, seconds)
        else:
            metrics, notes, problems = run_end_to_end(wl, clock, name, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = tally(problems)
    for p in failed[:5]:
        print("FAILED: " + "; ".join(p), file=sys.stderr)
    if not traced:
        metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics,
                   "ok_ratio": ((attempted - len(failed)) / attempted, "ratio")}
        notes["setup_s"] = f"median of {SETUPS} set-ups"
        notes["ok_ratio"] = (f"fail_ratio {len(failed) / attempted:.4g}: "
                             f"{len(failed)} of {attempted} ops failed")
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(traced)}; "
          "times in reference seconds")
    _print_metrics(metrics, notes)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sdorder" / "__init__.py").is_file():
        print(f"bench: no sdorder package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and its children, so that the reference
    # loop runs on the CPU where the op ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
