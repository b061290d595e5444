"""The greediness, oracle and generate commands, which `sdorder.cli` imports
only when one of them runs: check, min-gamma and min-epsilon never compile
this module or load the utility, oracle and generator layers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .cli import (InputError, _decider, _finite, _flag, _json_numbers, _load_json,
                  _reject_unread_weights, _resolve_gamma, _tolerance, _verdict_json, _weight,
                  load_distribution, serialize_distribution, serialize_gamma)
from .piecewise import merge_grids
from .utility import UtilityPWL, global_greediness, greediness_profile


def load_utility(path: str) -> UtilityPWL:
    obj = _load_json(path)
    if obj.get("kind") != "utility":
        raise InputError(f"{path}: expected kind 'utility', got {obj.get('kind')!r}")
    try:
        anchor = (_finite(obj["anchor"]["x"]), _finite(obj["anchor"]["value"]))
        segs = obj["segments"]
        if not isinstance(segs, list) or not segs:
            raise InputError(f"{path}: 'segments' must be a non-empty list")
        if segs[0]["from"] != "-inf":
            raise InputError(f"{path}: first segment must start at \"-inf\"")
        slopes = [_finite(s["slope"]) for s in segs]
        breaks = [_finite(s["from"]) for s in segs[1:]]
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}") from e
    try:
        return UtilityPWL(tuple(breaks), tuple(slopes), anchor=anchor)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


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


def cmd_greediness(args) -> int:
    u = load_utility(args.u)
    prof = greediness_profile(u)
    g = global_greediness(u)
    if args.format == "json":
        num = _json_numbers()
        values = ", ".join([num(v) for v in prof.values])
        sys.stdout.write(f'{{"global": {num(g)}, "breaks": {json.dumps(list(prof.breaks))}, '
                         f'"values": [{values}]}}\n')
        return 0
    lo = ["-inf"] + [f"{b:.12g}" for b in prof.breaks]
    lines = [f"global: {g:.12g}", "profile:"]
    lines += [f"  from={start} value={v:.12g}" for start, v in zip(lo, prof.values)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    tol = _tolerance(args)
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    _reject_unread_weights(args)
    F = load_distribution(args.f, tol)
    G = load_distribution(args.g, tol)
    grid = merge_grids(F.carrier.breaks, G.carrier.breaks)
    scfg = oracle.SamplerConfig(t_grid=(*grid, grid[-1] + 1.0), seed=args.seed,
                                count=args.samples)
    agreement = _decider(oracle, "agreement", args.order)
    rep = agreement(F, G, *_weight(args, tol), scfg, tol=tol)
    if args.format == "json":
        num = _json_numbers()
        violating = json.dumps(_utility_obj(rep.violating)) if rep.violating else "null"
        sys.stdout.write(_verdict_json(rep.verdict, num, (
            f', "agree": {_flag(rep.agree)}, "samples": {json.dumps(rep.count)}, '
            f'"min_gap": {num(rep.min_gap)}, "violating": {violating}, '
            f'"note": {json.dumps(rep.summary())}')))
    else:
        sys.stdout.write(f"order: {rep.verdict.order_tag.value}\n"
                         f"holds: {_flag(rep.verdict.holds)}\n"
                         f"agree: {_flag(rep.agree)}\n"
                         f"samples: {rep.count}\n"
                         f"min_gap: {rep.min_gap:.12g}\n"
                         f"note: {rep.summary()}\n")
    return 0 if rep.agree else 1


def cmd_generate(args) -> int:
    from .generators import (example_identical_means, example_local_interpolation,
                             example_squares, example_strict_inclusion, example_theta_family)

    name = args.example
    weighted = name in ("squares", "strict-inclusion")
    # as in every command that reads a tolerance, it is resolved first
    tol = _tolerance(args) if weighted else None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"{args.out}: {e.strerror or e}") from e
    try:
        if name == "identical-means":
            F, G, g = example_identical_means(args.mu, args.eps)
            files = [("f.json", serialize_distribution(F)),
                     ("g.json", serialize_distribution(G)),
                     ("gamma.json", serialize_gamma(g))]
        elif name == "local-interpolation":
            g = example_local_interpolation(args.t1, args.t2, args.gamma_mid)
            files = [("gamma.json", serialize_gamma(g))]
        elif weighted:
            g = _resolve_gamma(args, tol)
            F, G = (example_squares(args.gamma_target, g, args.t0) if name == "squares"
                    else example_strict_inclusion(args.t, g, args.c))
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
