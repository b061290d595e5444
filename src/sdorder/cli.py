"""Command-line front-end.

Subcommands wrap the library: order checks, minimal-weight computation,
greediness profiles, sampling cross-checks, and fixture generation.
Exit codes: 0 the check holds or the command succeeded, 1 a valid
negative verdict (order fails, no admissible weight, disagreement), 2
usage or validation errors. The greediness, oracle and generate commands
live in cli_extra, which is imported only when one of them runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import import_module
from pathlib import Path

from . import dominance
from .distributions import Distribution, from_samples
from .dominance import Verdict
from .gamma import (
    EpsilonFn,
    GammaFn,
    Infeasible,
    NotSSDOrdered,
    min_constant_epsilon,
    min_gamma,
    validate_epsilon,
    validate_gamma,
)
from .piecewise import DivisionByZeroGamma, PiecewiseFn, _poly_value

DEFAULT_TOL = 1e-9
TOL_ENV = "SDORDER_TOL"


class InputError(ValueError):
    """File-level parse or validation failure; maps to exit code 2."""


# ---------------------------------------------------------------- wire formats


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}: {e.msg}") from e
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top-level value must be an object")
    return obj


def _finite(v) -> float:
    """float(v), refusing NaN and the infinities: no verdict is right on them."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {v!r}")
    return x


def _pieces_to_carrier(obj: dict, path: str, kind: str) -> PiecewiseFn:
    if obj.get("kind") != kind:
        raise InputError(f"{path}: expected kind '{kind}', got {obj.get('kind')!r}")
    pieces = obj.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise InputError(f"{path}: 'pieces' must be a non-empty list")
    try:
        # a gamma may start from a non-zero "left" value; a cdf starts at 0
        value = _finite(obj.get("left", 0.0)) if kind == "gamma" else 0.0
    except (TypeError, ValueError) as e:
        raise InputError(f"{path}: left: {e}") from e
    start = value
    breaks: list[float] = []
    coeffs: list[tuple[float, float, float]] = []
    for i, p in enumerate(pieces):
        try:
            x = _finite(p["x"])
            jump = _finite(p["jump"])
            slope = _finite(p["slope_after"])
            quad = _finite(p.get("quad", 0.0))
        except KeyError as e:
            raise InputError(f"{path}: piece {i}: missing {e}") from e
        except (TypeError, ValueError) as e:
            raise InputError(f"{path}: piece {i}: {e}") from e
        if breaks:
            if x <= breaks[-1]:
                raise InputError(f"{path}: piece {i}: x values must be strictly increasing")
            value = _poly_value(coeffs[-1], x - breaks[-1])
        breaks.append(x)
        coeffs.append((value + jump, slope, quad))
    # an epsilon must stay inside its open band everywhere, so its first
    # value is extended leftward instead
    left = coeffs[0][0] if kind == "epsilon" else start
    return PiecewiseFn(breaks=tuple(breaks), left=left, coeffs=tuple(coeffs))


def _carrier_to_pieces(carrier: PiecewiseFn, kind: str) -> dict:
    # a gamma keeps a non-zero left tail in "left"; other kinds start at 0
    value = carrier.left if kind == "gamma" else 0.0
    head = {"kind": kind, "left": value} if value != 0.0 else {"kind": kind}
    if not carrier.breaks:
        # constant carrier: a single piece at 0 carrying the value
        carrier = carrier.with_breaks((0.0,))
    pieces = []
    for x, h, (c0, c1, c2) in carrier.cells():
        piece = {"x": x, "jump": c0 - value, "slope_after": c1}
        if c2 != 0.0:
            piece["quad"] = c2
        pieces.append(piece)
        value = _poly_value((c0, c1, c2), h)  # past the unbounded last cell: never read
    return {**head, "pieces": pieces}


def load_distribution(path: str, tol: float) -> Distribution:
    if path.endswith(".csv"):
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as e:
            raise InputError(f"{path}: {e.strerror or e}") from e
        xs = []
        for ln, raw in enumerate(lines, 1):
            s = raw.strip()
            if not s:
                continue
            try:
                xs.append(float(s))
            except ValueError as e:
                raise InputError(f"{path}:{ln}: not a number: {s!r}") from e
        try:
            return from_samples(xs)
        except ValueError as e:
            raise InputError(f"{path}: {e}") from e
    obj = _load_json(path)
    carrier = _pieces_to_carrier(obj, path, "cdf")
    try:
        return Distribution.from_cdf(carrier, tol=tol)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def load_gamma(path: str, tol: float) -> GammaFn:
    carrier = _pieces_to_carrier(_load_json(path), path, "gamma")
    try:
        return validate_gamma(carrier, tol=tol)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def load_epsilon(path: str) -> EpsilonFn:
    carrier = _pieces_to_carrier(_load_json(path), path, "epsilon")
    try:
        return validate_epsilon(carrier)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def serialize_distribution(F: Distribution) -> str:
    return json.dumps(_carrier_to_pieces(F.carrier, "cdf")) + "\n"


def serialize_gamma(g: GammaFn) -> str:
    return json.dumps(_carrier_to_pieces(g.carrier, "gamma")) + "\n"


def serialize_epsilon(e: EpsilonFn) -> str:
    return json.dumps(_carrier_to_pieces(e.carrier, "epsilon")) + "\n"


# ---------------------------------------------------------------- reporting
#
# Every report is built as one string and written once to sys.stdout, read
# at each write because callers redirect it. Numbers print to 12
# significant digits: "%.12g" in text; in JSON, that rounding read back as
# a float, or a quoted "inf", "-inf" or "nan".


def _flag(b: bool) -> str:
    return "true" if b else "false"


def _json_numbers():
    """A formatter of numbers as JSON tokens, for one report.

    None is null. Each distinct non-zero finite value is formatted once;
    zeros skip the memo, because 0.0 == -0.0 would make the two signs
    share an entry.
    """
    memo: dict[float, str] = {}

    def num(x: float | None) -> str:
        s = memo.get(x)
        if s is None:
            if x is None:
                return "null"
            if not math.isfinite(x):
                return f'"{x}"'
            s = repr(float(f"{x:.12g}"))
            if x:
                memo[x] = s
        return s

    return num


def _verdict_json(v: Verdict, num, tail: str = "") -> str:
    """The verdict as one JSON line; tail adds ', "key": value' members."""
    diags = ", ".join([f'{{"t": {num(t)}, "lhs": {num(l)}, "rhs": {num(r)}}}'
                       for t, l, r in v.diagnostics])
    return (f'{{"order": "{v.order_tag.value}", "holds": {_flag(v.holds)}, '
            f'"witness_t": {num(v.witness_t)}, "margin": {num(v.margin)}, '
            f'"diagnostics": [{diags}]{tail}}}\n')


def _verdict_text(v: Verdict) -> str:
    lines = [f"order: {v.order_tag.value}", f"holds: {_flag(v.holds)}"]
    if v.witness_t is not None:
        lines.append(f"witness_t: {v.witness_t:.12g}")
    lines += [f"margin: {v.margin:.12g}", "diagnostics:"]
    lines += [f"  t={t:.12g} lhs={l:.12g} rhs={r:.12g}" for t, l, r in v.diagnostics]
    return "\n".join(lines) + "\n"


def _emit_verdict(v: Verdict, args) -> int:
    json_out = args.format == "json"
    sys.stdout.write(_verdict_json(v, _json_numbers()) if json_out else _verdict_text(v))
    return 0 if v.holds else 1


# ---------------------------------------------------------------- commands


def _tolerance(args) -> float:
    """--tol, else SDORDER_TOL, else 1e-9; positive and finite."""
    tol = args.tol
    if tol is None:
        env = os.environ.get(TOL_ENV)
        if env is None:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError as e:
            raise InputError(f"{TOL_ENV}: not a number: {env!r}") from e
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tolerance must be positive and finite")
    return tol


def _gamma_const(args) -> GammaFn:
    """GammaFn.const(--gamma-const), with its errors named after the flag."""
    try:
        return GammaFn.const(_finite(args.gamma_const))
    except ValueError as e:
        raise InputError(f"--gamma-const: {e}") from e


def _resolve_gamma(args, tol: float) -> GammaFn:
    if args.gamma is not None and args.gamma_const is not None:
        raise InputError("give --gamma FILE or --gamma-const VALUE, not both")
    if args.gamma:
        return load_gamma(args.gamma, tol)
    if args.gamma_const is not None:
        return _gamma_const(args)
    raise InputError("this order needs --gamma FILE or --gamma-const VALUE")


# the weight flags each --order reads
_READS = {"fsd": (), "ssd": (), "frac": ("gamma_const",), "mfsd": ("gamma", "gamma_const"),
          "ffsd": ("gamma", "gamma_const"), "easd": ("epsilon",)}


def _reject_unread_weights(args) -> None:
    """A weight flag that --order does not read is an error, not ignored."""
    for flag in ("gamma", "gamma_const", "epsilon"):
        if getattr(args, flag) is not None and flag not in _READS[args.order]:
            raise InputError(f"--{flag.replace('_', '-')} is not read by --order {args.order}")


def _weight(args, tol: float) -> tuple:
    """The weight that --order takes after the pair: () for fsd and ssd."""
    order = args.order
    if order == "frac":
        if args.gamma_const is None:
            raise InputError("frac needs --gamma-const VALUE")
        return (_gamma_const(args).upper,)
    if order == "easd":
        if not args.epsilon:
            raise InputError("easd needs --epsilon FILE")
        return (load_epsilon(args.epsilon),)
    return (_resolve_gamma(args, tol),) if order in ("mfsd", "ffsd") else ()


def _decider(module, prefix: str, order: str):
    """module's prefix_<order> function, read at call time so that a
    wrapper installed on the module is the one called."""
    return getattr(module, f"{prefix}_{'fractional' if order == 'frac' else order}")


def _on_pair(args, tol: float, decide):
    """decide(F, G) on the loaded pair, returned after F and G are gone.

    The library keeps a pair's geometry only while both distributions
    live, so a command that prints after this returns prints without it.
    """
    return decide(load_distribution(args.f, tol), load_distribution(args.g, tol))


def cmd_check(args) -> int:
    tol = _tolerance(args)
    _reject_unread_weights(args)
    check = _decider(dominance, "check", args.order)
    verdict = _on_pair(args, tol, lambda F, G: check(F, G, *_weight(args, tol), tol=tol))
    return _emit_verdict(verdict, args)


def _gamma_series(g: GammaFn) -> list[tuple[float, float]]:
    carrier = g.carrier
    if not carrier.breaks:
        return [(0.0, carrier.left), (1.0, carrier.left)]
    bs = carrier.breaks
    pts = [bs[0] - 1.0]
    for lo, hi in zip(bs, bs[1:]):
        pts += (lo, (lo + hi) / 2.0)  # not lo + width / 2, which rounds otherwise
    pts += (bs[-1], bs[-1] + 1.0)
    return [(t, carrier.value(t)) for t in pts]


def cmd_min_gamma(args) -> int:
    tol = _tolerance(args)
    try:
        g = _on_pair(args, tol, lambda F, G: min_gamma(F, G, tol=tol))
    except NotSSDOrdered as e:
        if args.format == "json":
            out = f'{{"error": "NotSSDOrdered", "ratio": {_json_numbers()(e.ratio)}}}\n'
        else:
            out = f"NotSSDOrdered: deficit exceeds surplus (ratio {e.ratio:.12g})\n"
        sys.stdout.write(out)
        return 1
    pieces = _carrier_to_pieces(g.carrier, "gamma")
    series = _gamma_series(g)
    if args.format == "json":
        num = _json_numbers()
        sys.stdout.write(f'{{"gamma": {json.dumps(pieces)}, "lower": {num(g.lower)}, '
                         f'"upper": {num(g.upper)}, "series": {json.dumps(series)}}}\n')
        return 0
    lines = ["pieces:"]
    for p in pieces["pieces"]:
        extra = f" quad={p['quad']:.12g}" if "quad" in p else ""
        lines.append(f"  x={p['x']:.12g} jump={p['jump']:.12g}"
                     f" slope_after={p['slope_after']:.12g}{extra}")
    lines += [f"upper: {g.upper:.12g}", "series:"]
    lines += [f"  {t:.12g},{v:.12g}" for t, v in series]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_min_epsilon(args) -> int:
    tol = _tolerance(args)
    r = _on_pair(args, tol, min_constant_epsilon)
    num = _json_numbers()
    if isinstance(r, Infeasible):
        sys.stdout.write(f'{{"infeasible": true, "value": {num(r.value)}}}\n'
                         if args.format == "json" else
                         f"infeasible: no epsilon below 1/2 works (ratio {r.value:.12g})\n")
        return 1
    sys.stdout.write(f'{{"epsilon": {num(r)}}}\n' if args.format == "json"
                     else f"epsilon: {r:.12g}\n")
    return 0


def _extra(name: str):
    """cli_extra's command `name`, imported only when it runs."""
    return lambda args: getattr(import_module(".cli_extra", __package__), name)(args)


# ---------------------------------------------------------------- dispatch


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sdorder",
        description="Decide stochastic dominance orders and their relaxations.",
    )
    # one parent parser per option group; each subcommand lists the ones it reads
    tol, fmt, pair, gamma, eps = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    tol.add_argument("--tol", type=float, default=None,
                     help="comparison tolerance (default: SDORDER_TOL or 1e-9)")
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    pair.add_argument("--f", required=True, help="first distribution (json or csv)")
    pair.add_argument("--g", required=True, help="second distribution (json or csv)")
    gamma.add_argument("--gamma", help="weight function file")
    gamma.add_argument("--gamma-const", type=float, help="constant weight shorthand")
    eps.add_argument("--epsilon", help="threshold function file")

    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[tol, fmt, pair, gamma, eps],
                        help="decide one order")
    pc.add_argument("--order", required=True,
                    choices=("fsd", "ssd", "frac", "mfsd", "ffsd", "easd"))
    pc.set_defaults(fn=cmd_check)

    pg = sub.add_parser("min-gamma", parents=[tol, fmt, pair],
                        help="smallest admissible weight function")
    pg.set_defaults(fn=cmd_min_gamma)

    pe = sub.add_parser("min-epsilon", parents=[tol, fmt, pair],
                        help="smallest admissible constant threshold")
    pe.set_defaults(fn=cmd_min_epsilon)

    pu = sub.add_parser("greediness", parents=[fmt], help="greediness profile of a utility")
    pu.add_argument("--u", required=True, help="utility file")
    pu.set_defaults(fn=_extra("cmd_greediness"))

    po = sub.add_parser("oracle", parents=[tol, fmt, pair, gamma, eps],
                        help="cross-check a verdict against sampled utilities")
    po.add_argument("--order", required=True, choices=("mfsd", "ffsd", "easd"))
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--samples", type=int, default=500)
    po.set_defaults(fn=_extra("cmd_oracle"))

    px = sub.add_parser("generate", help="write fixture files")
    gx = px.add_subparsers(dest="example", required=True)

    g1 = gx.add_parser("identical-means")
    g1.add_argument("--mu", type=float, required=True)
    g1.add_argument("--eps", type=float, required=True)
    g2 = gx.add_parser("local-interpolation")
    g2.add_argument("--t1", type=float, required=True)
    g2.add_argument("--t2", type=float, required=True)
    g2.add_argument("--gamma-mid", type=float, required=True)
    g3 = gx.add_parser("squares", parents=[tol, gamma])
    g3.add_argument("--gamma-target", type=float, required=True)
    g3.add_argument("--t0", type=float, required=True)
    g4 = gx.add_parser("strict-inclusion", parents=[tol, gamma])
    g4.add_argument("--t", type=float, required=True)
    g4.add_argument("--c", type=float, required=True)
    g5 = gx.add_parser("theta-family")
    g5.add_argument("--theta", type=float, required=True)
    g5.add_argument("--variant", required=True, choices=("MF", "FF"))
    g5.add_argument("--grid", type=int, default=8)
    for gp in (g1, g2, g3, g4, g5):
        gp.add_argument("--out", default=".", help="output directory")
        gp.set_defaults(fn=_extra("cmd_generate"))

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return code
    try:
        return args.fn(args)
    except (ValueError, DivisionByZeroGamma) as e:  # InputError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
