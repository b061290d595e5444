"""Run one workload on several seeds; print each metric's median and spread.

    python3 bench/spread.py --workload oracle --seeds 1-10

The spread is (q3 - q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`. bench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(first, last + 1):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                            "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                           capture_output=True, text=True, check=True)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']} of {result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        print(f"{name:12s} median {median:.5g} {units[name]}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
