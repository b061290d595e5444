"""Start-up cost of the sdorder command line, stdlib only.

    python tests/tools/startup.py [-n N]

Runs N fresh interpreters of each of three kinds, in turn: a bare one
(`python -c pass`), one that imports `sdorder.cli`, and one that runs
`python -m sdorder.cli check --order ssd` on a 4096/2048-sample CSV pair
written to a temporary directory. It prints the median wall time of each
kind and what the last two add to the bare one, then the modules that
`import sdorder.cli` and the check load beyond those a bare interpreter
has loaded. The package is imported from src/ of this checkout, and the
children inherit the caller's environment, PYTHONDONTWRITEBYTECODE
included, so the figures are those of a user's process. The script is
not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

# prints the modules that the code after it loads, beyond those loaded when it starts
LOADED = ("import sys; bare = set(sys.modules)\n{}\n"
          "print(*sorted(set(sys.modules) - bare), file=sys.stderr)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("SDORDER_TOL", None)
    return env


def _wall(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=False)
    return time.perf_counter() - t0


def _loaded(code: str, env: dict) -> list[str]:
    r = subprocess.run([sys.executable, "-c", LOADED.format(code)], env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
    return r.stderr.split()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=11, help="processes of each kind (default 11)")
    n = parser.parse_args().n
    env = _env()
    with tempfile.TemporaryDirectory() as tmp:
        rng = random.Random(1)
        pair = []
        for name, size, spread in (("f.csv", 4096, 1.0), ("g.csv", 2048, 0.5)):
            path = Path(tmp) / name
            path.write_text("".join(f"{rng.gauss(0.0, spread)!r}\n" for _ in range(size)))
            pair.append(str(path))
        check = ["check", "--order", "ssd", "--f", pair[0], "--g", pair[1]]
        kinds = {"bare interpreter": [sys.executable, "-c", "pass"],
                 "import sdorder.cli": [sys.executable, "-c", "import sdorder.cli"],
                 "check --order ssd": [sys.executable, "-m", "sdorder.cli", *check]}
        times = {kind: [] for kind in kinds}
        for _ in range(n):
            for kind, argv in kinds.items():
                times[kind].append(_wall(argv, env))
        loads = {"import sdorder.cli": _loaded("import sdorder.cli", env),
                 "check --order ssd": _loaded(
                     "import contextlib, io; from sdorder.cli import main\n"
                     f"with contextlib.redirect_stdout(io.StringIO()): main({check!r})", env)}
    bare = statistics.median(times["bare interpreter"])
    for kind, runs in times.items():
        median = statistics.median(runs)
        extra = f"  (+{(median - bare) * 1e3:.1f} ms)" if kind in loads else ""
        print(f"{kind:<20} median {median * 1e3:7.1f} ms over {n} runs{extra}")
    for kind, modules in loads.items():
        print(f"\n{kind} loads {len(modules)} modules beyond a bare interpreter:")
        print("  " + " ".join(modules))
    return 0


if __name__ == "__main__":
    sys.exit(main())
