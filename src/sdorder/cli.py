"""Command-line front-end.

Subcommands wrap the library: order checks, minimal-weight computation,
greediness profiles, sampling cross-checks, and fixture generation.
Exit codes: 0 the check holds or the command succeeded, 1 a valid
negative verdict (order fails, no admissible weight, disagreement), 2
usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .distributions import Distribution, from_samples
from .dominance import (
    Verdict,
    check_easd,
    check_ffsd,
    check_fractional,
    check_fsd,
    check_mfsd,
    check_ssd,
)
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
from .generators import (
    example_identical_means,
    example_local_interpolation,
    example_squares,
    example_strict_inclusion,
    example_theta_family,
)
from .oracle import SamplerConfig, agreement_easd, agreement_ffsd, agreement_mfsd
from .piecewise import DivisionByZeroGamma, PiecewiseFn, _poly_value, merge_grids
from .utility import UtilityPWL, global_greediness, greediness_profile

DEFAULT_TOL = 1e-9
TOL_ENV = "SDORDER_TOL"


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = DEFAULT_TOL
    fmt: str = "text"
    seed: int = 0
    samples: int = 500

    def __post_init__(self) -> None:
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


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


def _pieces_to_carrier(obj: dict, path: str, kind: str) -> PiecewiseFn:
    if obj.get("kind") != kind:
        raise InputError(f"{path}: expected kind '{kind}', got {obj.get('kind')!r}")
    pieces = obj.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise InputError(f"{path}: 'pieces' must be a non-empty list")
    try:
        # a gamma may start from a non-zero "left" value; a cdf starts at 0
        start = float(obj.get("left", 0.0)) if kind == "gamma" else 0.0
    except (TypeError, ValueError) as e:
        raise InputError(f"{path}: left: {e}") from e
    breaks: list[float] = []
    coeffs: list[tuple[float, float, float]] = []
    value = start
    for i, p in enumerate(pieces):
        try:
            x = float(p["x"])
            jump = float(p["jump"])
            slope = float(p["slope_after"])
            quad = float(p.get("quad", 0.0))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"{path}: piece {i}: {e}") from e
        if breaks and x <= breaks[-1]:
            raise InputError(f"{path}: piece {i}: x values must be strictly increasing")
        breaks.append(x)
        c0 = value + jump
        coeffs.append((c0, slope, quad))
        if i + 1 < len(pieces):
            h = float(pieces[i + 1]["x"]) - x
            value = _poly_value((c0, slope, quad), h)
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
    for i, x in enumerate(carrier.breaks):
        c0, c1, c2 = carrier.coeffs[i]
        piece = {"x": x, "jump": c0 - value, "slope_after": c1}
        if c2 != 0.0:
            piece["quad"] = c2
        pieces.append(piece)
        if i + 1 < len(carrier.breaks):
            h = carrier.breaks[i + 1] - x
            value = _poly_value((c0, c1, c2), h)
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


def load_epsilon(path: str, tol: float) -> EpsilonFn:
    carrier = _pieces_to_carrier(_load_json(path), path, "epsilon")
    try:
        return validate_epsilon(carrier, tol=tol)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def load_utility(path: str) -> UtilityPWL:
    obj = _load_json(path)
    if obj.get("kind") != "utility":
        raise InputError(f"{path}: expected kind 'utility', got {obj.get('kind')!r}")
    try:
        anchor = (float(obj["anchor"]["x"]), float(obj["anchor"]["value"]))
        segs = obj["segments"]
        if not isinstance(segs, list) or not segs:
            raise InputError(f"{path}: 'segments' must be a non-empty list")
        if segs[0]["from"] != "-inf":
            raise InputError(f"{path}: first segment must start at \"-inf\"")
        slopes = [float(s["slope"]) for s in segs]
        breaks = [float(s["from"]) for s in segs[1:]]
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}") from e
    try:
        return UtilityPWL(tuple(breaks), tuple(slopes), anchor=anchor)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def serialize_distribution(F: Distribution) -> str:
    return json.dumps(_carrier_to_pieces(F.carrier, "cdf")) + "\n"


def serialize_gamma(g: GammaFn) -> str:
    return json.dumps(_carrier_to_pieces(g.carrier, "gamma")) + "\n"


def serialize_epsilon(e: EpsilonFn) -> str:
    return json.dumps(_carrier_to_pieces(e.carrier, "epsilon")) + "\n"


def _utility_obj(u: UtilityPWL) -> dict:
    segments = [{"from": "-inf", "slope": u.slopes[0]}]
    for b, s in zip(u.breaks, u.slopes[1:]):
        segments.append({"from": b, "slope": s})
    return {
        "kind": "utility",
        "anchor": {"x": u.anchor[0], "value": u.anchor[1]},
        "segments": segments,
    }


def serialize_utility(u: UtilityPWL) -> str:
    return json.dumps(_utility_obj(u)) + "\n"


# ---------------------------------------------------------------- reporting


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _num(x: float | None):
    if x is None:
        return None
    if math.isfinite(x):
        return float(_fmt(x))
    return str(x)


def _verdict_obj(v: Verdict) -> dict:
    return {
        "order": v.order_tag.value,
        "holds": v.holds,
        "witness_t": _num(v.witness_t),
        "margin": _num(v.margin),
        "diagnostics": [
            {"t": _num(t), "lhs": _num(l), "rhs": _num(r)}
            for t, l, r in v.diagnostics
        ],
    }


def _print_verdict_text(v: Verdict) -> None:
    print(f"order: {v.order_tag.value}")
    print(f"holds: {'true' if v.holds else 'false'}")
    if v.witness_t is not None:
        print(f"witness_t: {_fmt(v.witness_t)}")
    print(f"margin: {_fmt(v.margin)}")
    print("diagnostics:")
    for t, l, r in v.diagnostics:
        print(f"  t={_fmt(t)} lhs={_fmt(l)} rhs={_fmt(r)}")


def _emit_verdict(v: Verdict, cfg: RunConfig) -> int:
    if cfg.fmt == "json":
        print(json.dumps(_verdict_obj(v)))
    else:
        _print_verdict_text(v)
    return 0 if v.holds else 1


# ---------------------------------------------------------------- commands


def _resolve_gamma(args, tol: float) -> GammaFn:
    if getattr(args, "gamma", None):
        return load_gamma(args.gamma, tol)
    if getattr(args, "gamma_const", None) is not None:
        try:
            return GammaFn.const(args.gamma_const)
        except ValueError as e:
            raise InputError(f"--gamma-const: {e}") from e
    raise InputError("this order needs --gamma FILE or --gamma-const VALUE")


def cmd_check(args, cfg: RunConfig) -> int:
    tol = cfg.tolerance
    F = load_distribution(args.f, tol)
    G = load_distribution(args.g, tol)
    order = args.order
    if order == "fsd":
        v = check_fsd(F, G, tol=tol)
    elif order == "ssd":
        v = check_ssd(F, G, tol=tol)
    elif order == "frac":
        if args.gamma_const is None:
            raise InputError("frac needs --gamma-const VALUE")
        try:
            v = check_fractional(F, G, args.gamma_const, tol=tol)
        except ValueError as e:
            raise InputError(f"--gamma-const: {e}") from e
    elif order == "mfsd":
        v = check_mfsd(F, G, _resolve_gamma(args, tol), tol=tol)
    elif order == "ffsd":
        v = check_ffsd(F, G, _resolve_gamma(args, tol), tol=tol)
    else:
        if not args.epsilon:
            raise InputError("easd needs --epsilon FILE")
        v = check_easd(F, G, load_epsilon(args.epsilon, tol), tol=tol)
    return _emit_verdict(v, cfg)


def _gamma_series(g: GammaFn) -> list[tuple[float, float]]:
    carrier = g.carrier
    if not carrier.breaks:
        return [(0.0, carrier.left), (1.0, carrier.left)]
    pts = [carrier.breaks[0] - 1.0]
    for i, b in enumerate(carrier.breaks):
        pts.append(b)
        if i + 1 < len(carrier.breaks):
            pts.append((b + carrier.breaks[i + 1]) / 2.0)
    pts.append(carrier.breaks[-1] + 1.0)
    return [(t, carrier.value(t)) for t in pts]


def cmd_min_gamma(args, cfg: RunConfig) -> int:
    tol = cfg.tolerance
    F = load_distribution(args.f, tol)
    G = load_distribution(args.g, tol)
    try:
        g = min_gamma(F, G, tol=tol)
    except NotSSDOrdered as e:
        if cfg.fmt == "json":
            print(json.dumps({"error": "NotSSDOrdered", "ratio": _num(e.ratio)}))
        else:
            print(f"NotSSDOrdered: deficit exceeds surplus (ratio {_fmt(e.ratio)})"
                  if e.ratio is not None else "NotSSDOrdered")
        return 1
    series = _gamma_series(g)
    if cfg.fmt == "json":
        print(json.dumps({
            "gamma": _carrier_to_pieces(g.carrier, "gamma"),
            "lower": _num(g.lower),
            "upper": _num(g.upper),
            "series": [[t, v] for t, v in series],
        }))
    else:
        obj = _carrier_to_pieces(g.carrier, "gamma")
        print("pieces:")
        for p in obj["pieces"]:
            extra = f" quad={_fmt(p['quad'])}" if "quad" in p else ""
            print(f"  x={_fmt(p['x'])} jump={_fmt(p['jump'])}"
                  f" slope_after={_fmt(p['slope_after'])}{extra}")
        print(f"upper: {_fmt(g.upper)}")
        print("series:")
        for t, v in series:
            print(f"  {_fmt(t)},{_fmt(v)}")
    return 0


def cmd_min_epsilon(args, cfg: RunConfig) -> int:
    tol = cfg.tolerance
    F = load_distribution(args.f, tol)
    G = load_distribution(args.g, tol)
    r = min_constant_epsilon(F, G, tol=tol)
    if isinstance(r, Infeasible):
        if cfg.fmt == "json":
            print(json.dumps({"infeasible": True, "value": _num(r.value)}))
        else:
            print(f"infeasible: no epsilon below 1/2 works (ratio {_fmt(r.value)})")
        return 1
    if cfg.fmt == "json":
        print(json.dumps({"epsilon": _num(r)}))
    else:
        print(f"epsilon: {_fmt(r)}")
    return 0


def cmd_greediness(args, cfg: RunConfig) -> int:
    u = load_utility(args.u)
    prof = greediness_profile(u)
    g = global_greediness(u)
    if cfg.fmt == "json":
        print(json.dumps({
            "global": _num(g),
            "breaks": list(prof.breaks),
            "values": [_num(v) for v in prof.values],
        }))
    else:
        print(f"global: {_fmt(g)}")
        print("profile:")
        lo = ["-inf"] + [_fmt(b) for b in prof.breaks]
        for start, v in zip(lo, prof.values):
            print(f"  from={start} value={_fmt(v)}")
    return 0


def cmd_oracle(args, cfg: RunConfig) -> int:
    tol = cfg.tolerance
    F = load_distribution(args.f, tol)
    G = load_distribution(args.g, tol)
    grid = merge_grids(F.carrier.breaks, G.carrier.breaks)
    ts = [*grid, grid[-1] + 1.0]
    scfg = SamplerConfig(t_grid=tuple(ts), seed=cfg.seed, count=cfg.samples)
    if args.order == "mfsd":
        rep = agreement_mfsd(F, G, _resolve_gamma(args, tol), scfg, tol=tol)
    elif args.order == "ffsd":
        rep = agreement_ffsd(F, G, _resolve_gamma(args, tol), scfg, tol=tol)
    else:
        if not args.epsilon:
            raise InputError("easd needs --epsilon FILE")
        rep = agreement_easd(F, G, load_epsilon(args.epsilon, tol), scfg, tol=tol)
    if cfg.fmt == "json":
        obj = _verdict_obj(rep.verdict)
        obj.update({
            "agree": rep.agree,
            "samples": rep.count,
            "min_gap": _num(rep.min_gap),
            "violating": _utility_obj(rep.violating) if rep.violating else None,
            "note": rep.summary(),
        })
        print(json.dumps(obj))
    else:
        print(f"order: {rep.verdict.order_tag.value}")
        print(f"holds: {'true' if rep.verdict.holds else 'false'}")
        print(f"agree: {'true' if rep.agree else 'false'}")
        print(f"samples: {rep.count}")
        print(f"min_gap: {_fmt(rep.min_gap)}")
        print(f"note: {rep.summary()}")
    return 0 if rep.agree else 1


def cmd_generate(args, cfg: RunConfig) -> int:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"{args.out}: {e.strerror or e}") from e
    name = args.example
    files: list[tuple[str, str]] = []
    try:
        if name == "identical-means":
            F, G, g = example_identical_means(args.mu, args.eps)
            files = [("f.json", serialize_distribution(F)),
                     ("g.json", serialize_distribution(G)),
                     ("gamma.json", serialize_gamma(g))]
        elif name == "local-interpolation":
            g = example_local_interpolation(args.t1, args.t2, args.gamma_mid)
            files = [("gamma.json", serialize_gamma(g))]
        elif name == "squares":
            g = _resolve_gamma(args, cfg.tolerance)
            F, G = example_squares(args.gamma_target, g, args.t0)
            files = [("f.json", serialize_distribution(F)),
                     ("g.json", serialize_distribution(G))]
        elif name == "strict-inclusion":
            g = _resolve_gamma(args, cfg.tolerance)
            F, G = example_strict_inclusion(args.t, g, args.c)
            files = [("f.json", serialize_distribution(F)),
                     ("g.json", serialize_distribution(G))]
        else:
            u, g = example_theta_family(args.theta, args.variant, args.grid)
            files = [("u.json", serialize_utility(u)),
                     ("gamma.json", serialize_gamma(g))]
    except ValueError as e:
        raise InputError(str(e)) from e
    for fname, text in files:
        p = out / fname
        p.write_text(text)
        print(f"wrote {p}")
    return 0


# ---------------------------------------------------------------- dispatch


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sdorder",
        description="Decide stochastic dominance orders and their relaxations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance (default: SDORDER_TOL or 1e-9)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=500)

    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common], help="decide one order")
    pc.add_argument("--order", required=True,
                    choices=("fsd", "ssd", "frac", "mfsd", "ffsd", "easd"))
    pc.add_argument("--f", required=True, help="first distribution (json or csv)")
    pc.add_argument("--g", required=True, help="second distribution (json or csv)")
    pc.add_argument("--gamma", help="weight function file")
    pc.add_argument("--gamma-const", type=float, help="constant weight shorthand")
    pc.add_argument("--epsilon", help="threshold function file")
    pc.set_defaults(fn=cmd_check)

    pg = sub.add_parser("min-gamma", parents=[common],
                        help="smallest admissible weight function")
    pg.add_argument("--f", required=True)
    pg.add_argument("--g", required=True)
    pg.set_defaults(fn=cmd_min_gamma)

    pe = sub.add_parser("min-epsilon", parents=[common],
                        help="smallest admissible constant threshold")
    pe.add_argument("--f", required=True)
    pe.add_argument("--g", required=True)
    pe.set_defaults(fn=cmd_min_epsilon)

    pu = sub.add_parser("greediness", parents=[common],
                        help="greediness profile of a utility")
    pu.add_argument("--u", required=True, help="utility file")
    pu.set_defaults(fn=cmd_greediness)

    po = sub.add_parser("oracle", parents=[common],
                        help="cross-check a verdict against sampled utilities")
    po.add_argument("--order", required=True, choices=("mfsd", "ffsd", "easd"))
    po.add_argument("--f", required=True)
    po.add_argument("--g", required=True)
    po.add_argument("--gamma")
    po.add_argument("--gamma-const", type=float)
    po.add_argument("--epsilon")
    po.set_defaults(fn=cmd_oracle)

    px = sub.add_parser("generate", help="write fixture files")
    gx = px.add_subparsers(dest="example", required=True)

    g1 = gx.add_parser("identical-means", parents=[common])
    g1.add_argument("--mu", type=float, required=True)
    g1.add_argument("--eps", type=float, required=True)
    g2 = gx.add_parser("local-interpolation", parents=[common])
    g2.add_argument("--t1", type=float, required=True)
    g2.add_argument("--t2", type=float, required=True)
    g2.add_argument("--gamma-mid", type=float, required=True)
    g3 = gx.add_parser("squares", parents=[common])
    g3.add_argument("--gamma-target", type=float, required=True)
    g3.add_argument("--t0", type=float, required=True)
    g3.add_argument("--gamma")
    g3.add_argument("--gamma-const", type=float)
    g4 = gx.add_parser("strict-inclusion", parents=[common])
    g4.add_argument("--t", type=float, required=True)
    g4.add_argument("--c", type=float, required=True)
    g4.add_argument("--gamma")
    g4.add_argument("--gamma-const", type=float)
    g5 = gx.add_parser("theta-family", parents=[common])
    g5.add_argument("--theta", type=float, required=True)
    g5.add_argument("--variant", required=True, choices=("MF", "FF"))
    g5.add_argument("--grid", type=int, default=8)
    for gp in (g1, g2, g3, g4, g5):
        gp.add_argument("--out", default=".", help="output directory")
        gp.set_defaults(fn=cmd_generate)

    return top


def _run_config(args) -> RunConfig:
    tol = args.tol
    if tol is None:
        env = os.environ.get(TOL_ENV)
        if env is not None:
            try:
                tol = float(env)
            except ValueError as e:
                raise InputError(f"{TOL_ENV}: not a number: {env!r}") from e
        else:
            tol = DEFAULT_TOL
    if not tol > 0.0:
        raise InputError("tolerance must be positive")
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    return RunConfig(tolerance=tol, fmt=args.format, seed=args.seed,
                     samples=args.samples)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return code
    try:
        cfg = _run_config(args)
        return args.fn(args, cfg)
    except (ValueError, DivisionByZeroGamma) as e:  # InputError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
