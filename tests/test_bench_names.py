"""The names the benchmark's tracer wraps must exist in the package.

`bench/tracing.py` replaces sdorder functions and methods by name when a
run is traced; a rename in `src/` would otherwise pass this suite and
only crash `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import sdorder
from sdorder.distributions import Distribution
from sdorder.piecewise import PiecewiseFn

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("sdorder_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves():
    tracing = _tracing()
    missing = [f"sdorder.{short}.{name}"
               for short, names in tracing.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"sdorder.{short}"), name, None))]
    # the tracer reads methods from the class dict, as below
    missing += [f"PiecewiseFn.{m}" for m in (*tracing.PIECEWISE_METHODS, "value")
                if not callable(vars(PiecewiseFn).get(m))]
    if not isinstance(vars(Distribution).get("from_cdf"), staticmethod):
        missing.append("Distribution.from_cdf")
    if not callable(getattr(sdorder.dominance, "signed_parts", None)):
        missing.append("sdorder.dominance.signed_parts")
    assert missing == []
