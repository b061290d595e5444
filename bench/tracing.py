"""Span tracing of sdorder from outside the package.

`install` replaces the public functions of each sdorder module that the
workloads reach, two PiecewiseFn methods and `Distribution.from_cdf`
with wrappers that record a span per call: name, start, end, parent span
and op id. A consumer binds an imported name at its own import (`from
.piecewise import signed_parts`), so every module attribute that is the
original function object is replaced, not only the defining module's. The tiny `_poly_*` helpers are left alone: a span per
call would cost more than the work they do, and their time stays in the
caller's self time. `PiecewiseFn.value` is counted but not timed, for
the same reason.

Spans stay in memory until `write_spans`; the end-to-end runs never call
`install`, so they run the package untouched.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Functions spanned per module: every public function a workload reaches,
# so that its time counts to its own layer, not to its caller's. The layer
# is the span name's prefix.
FUNCTIONS = {
    "piecewise": ("signed_parts", "cum_area_fn", "weighted_area_fn_values", "compress"),
    "distributions": ("from_samples",),
    "dominance": ("check_fsd", "check_ssd", "check_fractional", "check_mfsd",
                  "check_ffsd", "check_easd"),
    "gamma": ("min_gamma", "min_constant_epsilon", "validate_gamma", "validate_epsilon"),
    "utility": ("make_base_mf", "make_base_ff", "make_base_asd",
                "expected_utility_gap", "combine"),
    "oracle": ("agreement_mfsd", "agreement_ffsd", "agreement_easd",
               "sample_mf_utilities", "sample_ff_utilities", "_sample_asd_utilities"),
    "cli": ("main", "cmd_check", "cmd_min_gamma", "cmd_min_epsilon",
            "load_distribution", "load_gamma", "load_epsilon", "_emit_verdict"),
}
PIECEWISE_METHODS = ("sub", "with_breaks")
# generators is left out: no op calls it, so it costs only import time,
# which setup_s and cli.import_s measure.
LAYERS = ("piecewise", "distributions", "dominance", "gamma", "utility",
          "oracle", "cli")


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op)
        self.stack: list[list] = []    # [span id, child time] per open span
        self.next_id = 0
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._differenced: set = set()
        self._operands: list = []
        self._restore: list = []

    # -- spans ------------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        sid = self.next_id
        self.next_id += 1
        self.stack.append([sid, 0.0])
        return sid, perf_counter()

    def _close(self, name: str, sid: int, t0: float) -> None:
        t1 = perf_counter()
        _, child = self.stack.pop()
        d = t1 - t0
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += d
        self.calls[name] += 1
        self.self_s[name] += d - child
        self.spans.append((sid, name, t0, t1, parent, self.op_id))

    def op(self, op_id: int, fn, *args):
        """Run one op as the root span "bench.op"; its self time is glue."""
        self.op_id = op_id
        self._differenced.clear()
        self._operands.clear()
        sid, t0 = self._open()
        try:
            return fn(*args)
        finally:
            self._close("bench.op", sid, t0)

    def wrap(self, name: str, fn, before=None, after=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid, t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                self._close(name, sid, t0)
            if after is not None:
                after(args, result)
            return result
        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted_fn(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted_fn

    # -- counters at layer boundaries -------------------------------------

    def _with_breaks_done(self, args, result) -> None:
        self.counts["piecewise.with_breaks.points"] += len(result.breaks)
        if len(result.breaks) == len(args[0].breaks):
            self.counts["piecewise.with_breaks.noop"] += 1

    def _sub_called(self, args) -> None:
        # Operands are held until the op ends, so their ids stay unique.
        key = (id(args[0]), id(args[1]))
        if key in self._differenced:
            self.counts["piecewise.sub.repeat"] += 1
        else:
            self._differenced.add(key)
            self._operands.append(args[:2])

    def _count(self, key: str, measure):
        def after(args, result):
            self.counts[key] += measure(result)
        return after

    # -- installation -----------------------------------------------------

    def _hooks(self, name: str):
        before = after = on_error = None
        if name == "piecewise.sub":
            before = self._sub_called
        elif name == "piecewise.with_breaks":
            after = self._with_breaks_done
        elif name == "distributions.from_samples":
            after = self._count("distributions.atoms", lambda r: len(r.carrier.breaks))
        elif name.startswith("dominance.check_"):
            after = self._count("dominance.candidates", lambda r: len(r.diagnostics))
        elif name == "gamma.min_gamma":
            after = self._count("gamma.min_gamma.pieces", lambda r: len(r.carrier.breaks))

            def on_error(e):
                if type(e).__name__ == "NotSSDOrdered":
                    self.counts["gamma.min_gamma.not_ordered"] += 1
        elif name.startswith("oracle.agreement_"):
            def after(args, rep):
                self.counts["oracle.utilities"] += rep.count
                self.counts["oracle.disagreements"] += not rep.agree
        return before, after, on_error

    def install(self) -> None:
        """Wrap the loaded sdorder modules in place; `uninstall` undoes it."""
        mods = {k: m for k, m in sys.modules.items()
                if k == "sdorder" or k.startswith("sdorder.")}
        swaps = {}
        for short, names in FUNCTIONS.items():
            mod = mods.get(f"sdorder.{short}")
            if mod is None:
                continue
            for fname in names:
                name = f"{short}.{fname}"
                swaps[getattr(mod, fname)] = self.wrap(name, getattr(mod, fname),
                                                       *self._hooks(name))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if callable(val) and not isinstance(val, type) and val in swaps:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, swaps[val])

        pw = mods["sdorder.piecewise"].PiecewiseFn
        for meth in PIECEWISE_METHODS:
            orig = vars(pw)[meth]
            self._restore.append((pw, meth, orig))
            setattr(pw, meth, self.wrap(f"piecewise.{meth}", orig,
                                        *self._hooks(f"piecewise.{meth}")))
        self._restore.append((pw, "value", vars(pw)["value"]))
        pw.value = self.counted("piecewise.value", vars(pw)["value"])

        dist = mods["sdorder.distributions"].Distribution
        self._restore.append((dist, "from_cdf", vars(dist)["from_cdf"]))
        dist.from_cdf = staticmethod(self.wrap("distributions.from_cdf",
                                               vars(dist)["from_cdf"].__func__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, val = self._restore.pop()
            setattr(owner, attr, val)

    # -- results ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per traced op, as {name: (value, unit)}."""
        n = max(ops, 1)
        calls, self_s, counts = self.calls, self.self_s, self.counts
        m: dict[str, tuple[float, str]] = {}

        def per_op_calls(name):
            m[f"{name}.calls"] = (calls[name] / n, "count")

        def per_op_self(name):
            m[f"{name}.self_s"] = (self_s[name] / n, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        for f in ("sub", "with_breaks", "signed_parts", "cum_area_fn",
                  "weighted_area_fn_values"):
            per_op_calls(f"piecewise.{f}")
            per_op_self(f"piecewise.{f}")
        m["piecewise.with_breaks.points"] = (counts["piecewise.with_breaks.points"] / n, "count")
        m["piecewise.with_breaks.noop_ratio"] = (
            ratio(counts["piecewise.with_breaks.noop"], calls["piecewise.with_breaks"]), "ratio")
        m["piecewise.sub.repeat_ratio"] = (
            ratio(counts["piecewise.sub.repeat"], calls["piecewise.sub"]), "ratio")
        m["piecewise.value.calls"] = (calls["piecewise.value"] / n, "count")

        per_op_calls("distributions.from_samples")
        per_op_self("distributions.from_samples")
        per_op_self("distributions.from_cdf")
        m["distributions.atoms"] = (counts["distributions.atoms"] / n, "count")

        for order in ("fsd", "ssd", "fractional", "mfsd", "ffsd", "easd"):
            per_op_self(f"dominance.check_{order}")
        m["dominance.candidates"] = (counts["dominance.candidates"] / n, "count")

        per_op_calls("gamma.min_gamma")
        per_op_self("gamma.min_gamma")
        m["gamma.min_gamma.pieces"] = (counts["gamma.min_gamma.pieces"] / n, "count")
        m["gamma.min_gamma.not_ordered"] = (counts["gamma.min_gamma.not_ordered"] / n, "count")
        per_op_self("gamma.min_constant_epsilon")
        per_op_calls("gamma.validate_gamma")
        per_op_self("gamma.validate_gamma")

        for f in ("make_base_mf", "make_base_ff", "make_base_asd",
                  "expected_utility_gap", "combine"):
            per_op_calls(f"utility.{f}")
            per_op_self(f"utility.{f}")

        for f in ("agreement_mfsd", "agreement_ffsd", "agreement_easd",
                  "sample_mf_utilities", "sample_ff_utilities"):
            per_op_self(f"oracle.{f}")
        m["oracle.utilities"] = (counts["oracle.utilities"] / n, "count")
        m["oracle.disagreements"] = (counts["oracle.disagreements"] / n, "count")

        per_op_self("cli.load_distribution")
        # The min-gamma and min-epsilon commands format and print inline, so
        # their self time (beyond the spanned loads and deciders) is emit time.
        m["cli.emit.self_s"] = ((self_s["cli._emit_verdict"] + self_s["cli.cmd_min_gamma"]
                                 + self_s["cli.cmd_min_epsilon"]) / n, "s")

        m["cli.stdout_bytes"] = (counts["cli.stdout_bytes"] / n, "B")
        m["cli.exit_mismatch"] = (counts["cli.exit_mismatch"] / n, "count")

        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            m[f"{layer}.self_s"] = (total / n, "s")
        m["trace.glue_s"] = (self_s["bench.op"] / n, "s")
        return m
