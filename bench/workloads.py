"""Seeded inputs, ops and verdict checks for the three benchmark workloads.

Every input is dyadic: samples sit on the grid 2**-20 and every mass is a
power-of-two fraction, so the areas the deciders compare are exact floats
and the expected verdicts below hold exactly, not up to rounding.

The spread pair is (F, G) with G a sample of N(0, 1) draws and F = G plus
an independent fair +-1/2 coin: a mean-preserving spread of G. For that
pair the orders of Mueller, Scarsini, Tsetlin & Winkler (Management
Science 2017) give the table in EXPECT; the reversed pair (G, F) fails
every order, and min_gamma raises NotSSDOrdered on it.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

QUANTUM = 2.0 ** -20
COIN = 0.5
# A pool of pairs is drawn at set-up. Op i uses pool[i % POOL] moved right
# by (i // POOL) * POOL_SHIFT, so no op repeats an earlier op's pair (a
# cache keyed on the pair never hits across ops) while every value stays
# dyadic and every verdict stays exact.
POOL = 32
POOL_SHIFT = 2.0 ** -8

ORDERS = ("fsd", "ssd", "frac", "mfsd", "ffsd", "easd")
FRAC_C = 0.5
EASD_EPS = 0.25
# FFSD step weight: 0.5 left of -1/2, 0.75 on [-1/2, 1/2), 1 from 1/2 on.
STEP_BREAKS = (-0.5, 0.5)
STEP_VALUES = (0.5, 0.75, 1.0)
# The gamma wire format starts every weight at 0 left of its first piece,
# so the CLI's copy of the step weight starts with a piece at WIRE_LEFT,
# left of every sample; on the data it is the same weight.
WIRE_LEFT = -64.0

NOT_ORDERED = "NotSSDOrdered"
# Expected outcome of every call, per direction. "min_gamma" is the upper
# limit of min_gamma's result (or the exception it raises); "min_epsilon"
# is the Infeasible level min_constant_epsilon returns, since the equal
# means make deficit and surplus areas equal in both directions.
EXPECT = {
    "FG": {"fsd": False, "ssd": True, "frac": False, "mfsd": True,
           "ffsd": False, "easd": False, "min_gamma": 1.0, "min_epsilon": 0.5},
    "GF": {"fsd": False, "ssd": False, "frac": False, "mfsd": False,
           "ffsd": False, "easd": False, "min_gamma": NOT_ORDERED, "min_epsilon": 0.5},
}


# ---------------------------------------------------------------- inputs


def dyadic_normal(rng: random.Random, n: int) -> list[float]:
    return [round(rng.gauss(0.0, 1.0) / QUANTUM) * QUANTUM for _ in range(n)]


def spread(g: list[float]) -> list[float]:
    """G convolved with a fair +-COIN coin, one sample per outcome."""
    return [x + s for x in g for s in (-COIN, COIN)]


def spread_pair(rng: random.Random, n: int) -> tuple[list[float], list[float]]:
    g = dyadic_normal(rng, n)
    return spread(g), g


def pool_pair(pool: list, i: int) -> tuple[list[float], list[float]]:
    f, g = pool[i % len(pool)]
    c = (i // len(pool)) * POOL_SHIFT
    if c == 0.0:
        return f, g
    return [x + c for x in f], [x + c for x in g]


def thresholds(f: list[float], g: list[float]) -> tuple[float, ...]:
    """The sampler's threshold grid, built as `sdorder oracle` builds it."""
    ts = sorted(set(f) | set(g))
    ts.append(ts[-1] + 1.0)
    return tuple(ts)


def import_sdorder(with_cli: bool):
    """Import sdorder afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "sdorder" or m.startswith("sdorder.")]:
        del sys.modules[name]
    sd = importlib.import_module("sdorder")
    cli = importlib.import_module("sdorder.cli") if with_cli else None
    return sd, cli


@dataclass
class Weights:
    step: object
    half: object
    eps: object


def make_weights(sd) -> Weights:
    step = sd.validate_gamma(sd.PiecewiseFn.step(STEP_BREAKS, STEP_VALUES))
    return Weights(step, sd.GammaFn.const(FRAC_C), sd.EpsilonFn.const(EASD_EPS))


def fit_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------- checks


def _is_infeasible(r, level: float) -> bool:
    # by name: every set-up re-imports sdorder, which makes a new class
    return type(r).__name__ == "Infeasible" and r.value == level


def suite_problems(out: dict, exp: dict) -> list[str]:
    """Compare one direction of the decide suite with the expected table."""
    bad = [f"{o}: holds={out[o].holds}, expected {exp[o]}"
           for o in ORDERS if out[o].holds != exp[o]]
    if out["min_gamma"] != exp["min_gamma"]:
        bad.append(f"min_gamma: {out['min_gamma']!r}, expected {exp['min_gamma']!r}")
    if not _is_infeasible(out["min_epsilon"], exp["min_epsilon"]):
        bad.append(f"min_constant_epsilon: {out['min_epsilon']!r}, "
                   f"expected Infeasible({exp['min_epsilon']})")
    chain = [out[o].holds for o in ("fsd", "ffsd", "mfsd", "ssd")]
    if any(a and not b for a, b in zip(chain, chain[1:])):
        bad.append(f"FSD => FFSD => MFSD => SSD broken: {chain}")
    if out["frac"].holds and not out["ssd"].holds:
        bad.append("FRAC holds but SSD fails")
    if out["min_gamma"] == NOT_ORDERED:
        # MFSD ran at the constant FRAC_C here, so FRAC(c) must equal it.
        frac, mfsd = out["frac"], out["mfsd"]
        if (frac.holds, frac.margin) != (mfsd.holds, mfsd.margin):
            bad.append(f"FRAC({FRAC_C}) {frac.holds}/{frac.margin!r} differs from "
                       f"MFSD(const {FRAC_C}) {mfsd.holds}/{mfsd.margin!r}")
    return bad


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    """Set-up state of one workload: its ops, their checks and a size ladder.

    `inputs(i)` gives op i its prepared inputs, `op` is the timed call and
    `check` lists what is wrong with its result. data["ladder"] holds
    LADDER_DRAWS draws, each a `ladder_op` input per size in LADDER; each
    draw gives one size-scaling fit.
    """

    sd: object
    weights: Weights
    expect: dict
    data: dict = field(default_factory=dict)

    LADDER = ()           # sizes of the ladder inputs
    LADDER_DRAWS = 1

    def ladder_op(self, inputs):
        return self.op(inputs)

    def ladder_check(self, result) -> list[str]:
        return self.check(result)

    def output_bytes(self, result) -> int:
        return 0

    def exit_mismatch(self, result) -> bool:
        return False


class Decide(Workload):
    """Library deciders on fresh spread pairs, both directions per op."""

    SIZE = 256
    LADDER = (512, 2048, 8192)

    @classmethod
    def setup(cls, seed: int, workdir: Path, expect=EXPECT) -> "Decide":
        sd, _ = import_sdorder(False)
        rng = random.Random(seed)
        pool = [spread_pair(rng, cls.SIZE) for _ in range(POOL)]
        ladder = [[spread_pair(rng, n) for n in cls.LADDER]]
        return cls(sd, make_weights(sd), expect, data={"pool": pool, "ladder": ladder})

    def suite(self, F, G) -> dict:
        sd, w = self.sd, self.weights
        out = {"fsd": sd.check_fsd(F, G), "ssd": sd.check_ssd(F, G),
               "frac": sd.check_fractional(F, G, FRAC_C)}
        try:
            gamma = sd.min_gamma(F, G)
            out["min_gamma"] = gamma.upper
        except sd.NotSSDOrdered:
            gamma = w.half
            out["min_gamma"] = NOT_ORDERED
        out["mfsd"] = sd.check_mfsd(F, G, gamma)
        out["ffsd"] = sd.check_ffsd(F, G, w.step)
        out["easd"] = sd.check_easd(F, G, w.eps)
        out["min_epsilon"] = sd.min_constant_epsilon(F, G)
        return out

    def inputs(self, i: int):
        return pool_pair(self.data["pool"], i)

    def op(self, inputs):
        f, g = inputs
        F, G = self.sd.from_samples(f), self.sd.from_samples(g)
        return self.suite(F, G), self.suite(G, F)

    def check(self, result) -> list[str]:
        fg, gf = result
        return ([f"(F,G) {p}" for p in suite_problems(fg, self.expect["FG"])]
                + [f"(G,F) {p}" for p in suite_problems(gf, self.expect["GF"])])

    def ladder_op(self, inputs):
        """One direction of the suite, (F, G), as the size grows."""
        f, g = inputs
        return self.suite(self.sd.from_samples(f), self.sd.from_samples(g))

    def ladder_check(self, result) -> list[str]:
        return suite_problems(result, self.expect["FG"])


class Oracle(Workload):
    """Verdict audits with 32 sampled utilities each on fresh small pairs."""

    SIZE = 200
    UTILITIES = 32
    LADDER = (100, 200, 400)
    # one op's cost varies with the utilities drawn, so fit several draws
    LADDER_DRAWS = 3

    @classmethod
    def setup(cls, seed: int, workdir: Path, expect=EXPECT) -> "Oracle":
        sd, _ = import_sdorder(False)
        rng = random.Random(seed)
        pool = [spread_pair(rng, cls.SIZE) for _ in range(POOL)]
        ladder = [[(f, g, thresholds(f, g), seed * 100003 + j)
                   for f, g in (spread_pair(rng, n) for n in cls.LADDER)]
                  for j in range(cls.LADDER_DRAWS)]
        return cls(sd, make_weights(sd), expect,
                   data={"pool": pool, "ladder": ladder, "seed": seed})

    def inputs(self, i: int):
        f, g = pool_pair(self.data["pool"], i)
        return f, g, thresholds(f, g), self.data["seed"] * 100003 + i

    def op(self, inputs):
        f, g, ts, sampler_seed = inputs
        sd, w = self.sd, self.weights
        F, G = sd.from_samples(f), sd.from_samples(g)
        cfg = sd.SamplerConfig(t_grid=ts, seed=sampler_seed, count=self.UTILITIES)
        gamma = sd.min_gamma(F, G)
        return (sd.agreement_mfsd(F, G, gamma, cfg),
                sd.agreement_ffsd(F, G, w.step, cfg),
                sd.agreement_easd(F, G, w.eps, cfg))

    def check(self, result) -> list[str]:
        exp = self.expect["FG"]
        bad = []
        for order, rep in zip(("mfsd", "ffsd", "easd"), result):
            if not rep.agree:
                bad.append(f"oracle {order}: sampled utilities disagree ({rep.summary()})")
            if rep.verdict.holds != exp[order]:
                bad.append(f"oracle {order}: holds={rep.verdict.holds}, expected {exp[order]}")
        return bad


CHILD_TIMEOUT_S = 120.0


def run_child(argv: list[str], env: dict, stdout=subprocess.DEVNULL) -> int:
    """Run a child to its end and return its exit code.

    Waits in one blocking call: `subprocess.run(timeout=...)` polls with
    sleeps of up to 50 ms, which would round every op time up. A timer
    kills a child that hangs.
    """
    child = subprocess.Popen(argv, env=env, stdout=stdout, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        return child.wait()
    finally:
        watchdog.cancel()


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    direction: str
    command: str      # an order name, "min_gamma" or "min_epsilon"
    fmt: str


def expected_exit(expect: dict, op: CliOp) -> int:
    exp = expect[op.direction][op.command]
    if op.command == "min_gamma":
        return 1 if exp == NOT_ORDERED else 0
    if op.command == "min_epsilon":
        return 1  # Infeasible
    return 0 if exp else 1


def _text_field(out: str, key: str) -> str | None:
    prefix = key + ": "
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def cli_output_problems(expect: dict, op: CliOp, code: int, out: str) -> list[str]:
    """Exit code and printed verdict of one CLI op against the table."""
    bad = []
    want = expected_exit(expect, op)
    if code != want:
        bad.append(f"exit {code}, expected {want}")
    exp = expect[op.direction][op.command]
    try:
        if op.command in ORDERS:
            holds = (json.loads(out)["holds"] if op.fmt == "json"
                     else _text_field(out, "holds") == "true")
            if holds != exp:
                bad.append(f"printed holds={holds}, expected {exp}")
        elif op.command == "min_gamma" and exp == NOT_ORDERED:
            if not out.startswith(NOT_ORDERED):
                bad.append("min-gamma did not report NotSSDOrdered")
        elif op.command == "min_gamma":
            upper = _text_field(out, "upper")
            if upper is None or float(upper) != exp:
                bad.append(f"min-gamma upper {upper}, expected {exp}")
        elif not out.startswith(f"infeasible: no epsilon below 1/2 works (ratio {exp:g})"):
            bad.append(f"min-epsilon printed {out[:80]!r}")
    except (ValueError, KeyError, TypeError) as e:
        bad.append(f"unreadable output: {e}")
    return [f"{' '.join(op.argv)}: {p}" for p in bad]


class Cli(Workload):
    """One `python -m sdorder.cli` process per op on fixed CSV fixtures."""

    SIZE = 2048
    LADDER = (512, 2048, 8192)
    LADDER_DRAWS = 3

    @classmethod
    def setup(cls, seed: int, workdir: Path, expect=EXPECT) -> "Cli":
        sd, cli = import_sdorder(True)
        rng = random.Random(seed)
        f, g = spread_pair(rng, cls.SIZE)
        weights = make_weights(sd)
        workdir.mkdir(parents=True, exist_ok=True)

        def write(name: str, text: str) -> str:
            p = workdir / name
            p.write_text(text)
            return str(p)

        def write_csv(name: str, xs: list[float]) -> str:
            return write(name, "".join(f"{x!r}\n" for x in xs))

        F, G = write_csv("f.csv", f), write_csv("g.csv", g)
        min_g = sd.min_gamma(sd.from_samples(f), sd.from_samples(g))
        if min(f) <= WIRE_LEFT:
            raise ValueError("a sample lies left of the wire step weight's first piece")
        wire_step = sd.validate_gamma(sd.PiecewiseFn.step((WIRE_LEFT, *STEP_BREAKS),
                                                          (0.0, *STEP_VALUES)))
        weight_args = {
            "fsd": [], "ssd": [], "frac": ["--gamma-const", repr(FRAC_C)],
            "mfsd": ["--gamma", write("min_gamma.json", cli.serialize_gamma(min_g))],
            "ffsd": ["--gamma", write("step.json", cli.serialize_gamma(wire_step))],
            "easd": ["--epsilon", write("eps.json", cli.serialize_epsilon(weights.eps))],
        }
        per_direction = []
        for direction, (a, b) in (("FG", (F, G)), ("GF", (G, F))):
            pair = ("--f", a, "--g", b)
            ops = [CliOp(("check", "--order", order, *pair, *weight_args[order],
                          "--format", fmt), direction, order, fmt)
                   for order in ORDERS for fmt in ("text", "json")]
            ops.append(CliOp(("min-gamma", *pair), direction, "min_gamma", "text"))
            ops.append(CliOp(("min-epsilon", *pair), direction, "min_epsilon", "text"))
            per_direction.append(ops)
        ops = [op for pair_ops in zip(*per_direction) for op in pair_ops]
        ladder = []
        for j in range(cls.LADDER_DRAWS):
            draw = []
            for n in cls.LADDER:
                lf, lg = spread_pair(rng, n)
                pair = ("--f", write_csv(f"ladder_f{n}_{j}.csv", lf),
                        "--g", write_csv(f"ladder_g{n}_{j}.csv", lg))
                draw.append(CliOp(("check", "--order", "ssd", *pair), "FG", "ssd", "text"))
            ladder.append(draw)
        env = {k: v for k, v in os.environ.items() if k != "SDORDER_TOL"}
        src = str(Path(sd.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return cls(sd, weights, expect, data={"ops": ops, "ladder": ladder, "env": env,
                                              "cli": cli, "stdout": workdir / "stdout.txt"})

    def inputs(self, i: int) -> CliOp:
        ops = self.data["ops"]
        return ops[i % len(ops)]

    def op(self, op: CliOp):
        # Output goes to a file, not a pipe: the caller then just waits, and
        # does not compete for the CPU with the child it times.
        with open(self.data["stdout"], "w+b") as out:
            code = run_child([sys.executable, "-m", "sdorder.cli", *op.argv],
                             self.data["env"], out)
            out.seek(0)
            return op, code, out.read().decode()

    def op_in_process(self, op: CliOp):
        """The same op through `sdorder.cli.main`, for the traced run."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.data["cli"].main(list(op.argv))
        return op, code, out.getvalue()

    def check(self, result) -> list[str]:
        op, code, out = result
        return cli_output_problems(self.expect, op, code, out)

    def output_bytes(self, result) -> int:
        return len(result[2].encode())

    def exit_mismatch(self, result) -> bool:
        op, code, _ = result
        return code != expected_exit(self.expect, op)


WORKLOADS = {"decide": Decide, "oracle": Oracle, "cli": Cli}
