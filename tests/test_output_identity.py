"""Every printed and returned result of the benchmark's first ops, pinned.

The benchmark's workloads (`bench/workloads.py`, loaded by path) are run
in process on seed 1: decide ops 0-33, oracle ops 0-11 and cli ops 0-27,
which is each of the cli's 28 commands once. Each op must pass its
workload's own check, and the `repr` of every result is fed, in op
order, into one SHA-256 per workload. A refactor that changes any
verdict, margin, witness, diagnostic row, sampled utility or report
byte changes a digest. The base-type utilities the oracle builds its
samples and witnesses from are pinned on their own, at every threshold.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sdorder
import sdorder.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# (workload, number of ops, SHA-256 of the op results in order)
PINNED = [
    ("decide", 34, "aa3f09d698ddaa5f08faad42bd16238e8164e3ceb0cb92fb1e3988b6081126ad"),
    ("oracle", 12, "6dafce956b65186ef34801ee5e000878c047b7e7781767d5c4906d918544c7f9"),
    ("cli", 28, "bb3c7a9ec9e2086b1e732e28ee89af4f39e9b0c62bf0691a940cbd35b7b0d3f4"),
]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("sdorder_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name, ops, digest", PINNED, ids=[p[0] for p in PINNED])
def test_bench_results_keep_their_bytes(workloads, monkeypatch, tmp_path, name, ops, digest):
    # set-up would re-import sdorder; the loaded package serves instead
    monkeypatch.setattr(workloads, "import_sdorder",
                        lambda with_cli: (sdorder, sdorder.cli if with_cli else None))
    work = workloads.WORKLOADS[name].setup(1, tmp_path)
    h = hashlib.sha256()
    for i in range(ops):
        if name == "cli":
            result = work.op_in_process(work.inputs(i))
            shown = (result[1], result[2])
        else:
            result = shown = work.op(work.inputs(i))
        assert work.check(result) == [], f"{name} op {i}"
        h.update(repr(shown).encode())
    assert h.hexdigest() == digest


# The benchmark's warm-up ops (0 and 1 of every run) and the first oracle op,
# on seeds 1-10: each must pass its workload's own check, which pins every
# verdict, min_gamma(F, G).upper == 1.0 and, on (G, F), FRAC(0.5) and
# MFSD(const 0.5) to the same margin bits
WARM_UP = [("decide", (0, 1)), ("oracle", (0,))]


@pytest.mark.parametrize("name, ops", WARM_UP, ids=[w[0] for w in WARM_UP])
def test_warm_up_ops_pass_their_checks_on_seeds_1_to_10(workloads, monkeypatch, tmp_path,
                                                        name, ops):
    monkeypatch.setattr(workloads, "import_sdorder", lambda with_cli: (sdorder, None))
    for seed in range(1, 11):
        work = workloads.WORKLOADS[name].setup(seed, tmp_path)
        for i in ops:
            assert work.check(work.op(work.inputs(i))) == [], f"{name} seed {seed} op {i}"


# SHA-256 of the base types that oracle op 0 of seed 1 can draw on its pair, in
# both directions: make_base_mf at every sampler threshold under min_gamma of
# (F, G), make_base_ff at every threshold under the step weight, make_base_asd
# under the constant 1/4
BASE_TYPES = "25ebdabab5622d001061acd219ce750bcf646c6dc34c46ca000731da178af519"


def test_base_types_keep_their_bytes(workloads, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "import_sdorder", lambda with_cli: (sdorder, None))
    work = workloads.WORKLOADS["oracle"].setup(1, tmp_path)
    f, g, ts, _ = work.inputs(0)
    F, G = sdorder.from_samples(f), sdorder.from_samples(g)
    gamma, step, eps = sdorder.min_gamma(F, G), work.weights.step, work.weights.eps
    h = hashlib.sha256()
    for A, B in ((F, G), (G, F)):
        for t in ts:
            h.update(repr(sdorder.make_base_mf(t, A, B, gamma)).encode())
        for t in ts:
            h.update(repr(sdorder.make_base_ff(t, A, B, step)).encode())
        h.update(repr(sdorder.make_base_asd(A, B, eps)).encode())
    assert h.hexdigest() == BASE_TYPES
