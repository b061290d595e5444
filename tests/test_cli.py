"""Command-line front-end: wire formats, exit codes, output shapes."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest

import sdorder as sd
from sdorder.cli import (
    _carrier_to_pieces,
    _pieces_to_carrier,
    load_distribution,
    load_gamma,
    load_utility,
    main,
    serialize_distribution,
    serialize_epsilon,
    serialize_gamma,
    serialize_utility,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def spread_files(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "identical-means",
                       "--mu", "2", "--eps", "1", "--out", str(tmp_path))
    assert code == 0
    assert out.count("wrote ") == 3
    return {name: str(tmp_path / f"{name}.json") for name in ("f", "g", "gamma")}


@pytest.fixture()
def crossing_files(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "strict-inclusion",
                     "--t", "0", "--c", "0.25", "--gamma-const", "0.5",
                     "--out", str(tmp_path))
    assert code == 0
    return {"f": str(tmp_path / "f.json"), "g": str(tmp_path / "g.json")}


class TestCheck:
    def test_mfsd_round_trip_holds(self, spread_files, capsys):
        code, out, _ = run(capsys, "check", "--order", "mfsd",
                           "--f", spread_files["f"], "--g", spread_files["g"],
                           "--gamma", spread_files["gamma"])
        assert code == 0
        assert "order: MFSD" in out
        assert "holds: true" in out
        assert "margin: 0" in out

    def test_frac_fails_with_witness(self, spread_files, capsys):
        code, out, _ = run(capsys, "check", "--order", "frac",
                           "--f", spread_files["f"], "--g", spread_files["g"],
                           "--gamma-const", "0.9")
        assert code == 1
        assert "holds: false" in out
        assert "witness_t: 3" in out
        assert "margin: -0.05" in out

    def test_json_format(self, spread_files, capsys):
        code, out, _ = run(capsys, "check", "--order", "ssd", "--format", "json",
                           "--f", spread_files["f"], "--g", spread_files["g"])
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == "SSD"
        assert obj["holds"] is True
        assert obj["margin"] == 0
        assert isinstance(obj["diagnostics"], list) and obj["diagnostics"]

    def test_fsd_from_csv_samples(self, tmp_path, capsys):
        # the second distribution is the candidate dominator
        hi = tmp_path / "hi.csv"
        lo = tmp_path / "lo.csv"
        hi.write_text("1\n1\n2\n\n3.5\n")
        lo.write_text("0\n1\n")
        code, out, _ = run(capsys, "check", "--order", "fsd",
                           "--f", str(lo), "--g", str(hi))
        assert code == 0 and "holds: true" in out
        code, out, _ = run(capsys, "check", "--order", "fsd",
                           "--f", str(hi), "--g", str(lo))
        assert code == 1 and "holds: false" in out

    def test_easd_with_epsilon_file(self, crossing_files, tmp_path, capsys):
        # a single constant piece extends leftward for epsilon inputs
        eps = tmp_path / "eps.json"
        eps.write_text('{"kind": "epsilon", "pieces":'
                       ' [{"x": 0.0, "jump": 0.3, "slope_after": 0.0}]}\n')
        code, out, _ = run(capsys, "check", "--order", "easd",
                           "--f", crossing_files["f"], "--g", crossing_files["g"],
                           "--epsilon", str(eps))
        assert code == 1
        assert "margin: -0.0416666666667" in out
        eps.write_text(serialize_epsilon(sd.EpsilonFn.const(0.375)))
        code, out, _ = run(capsys, "check", "--order", "easd",
                           "--f", crossing_files["f"], "--g", crossing_files["g"],
                           "--epsilon", str(eps))
        assert code == 0 and "holds: true" in out

    def test_quadratic_gamma_piece(self, spread_files, tmp_path, capsys):
        gam = tmp_path / "quad.json"
        gam.write_text('{"kind": "gamma", "pieces":'
                       ' [{"x": 0, "jump": 0, "slope_after": 0, "quad": 1},'
                       '  {"x": 1, "jump": 0, "slope_after": 0}]}\n')
        code, out, _ = run(capsys, "check", "--order", "mfsd",
                           "--f", spread_files["f"], "--g", spread_files["g"],
                           "--gamma", str(gam))
        assert code == 0 and "holds: true" in out


class TestMinGamma:
    def test_text_output(self, spread_files, capsys):
        code, out, _ = run(capsys, "min-gamma",
                           "--f", spread_files["f"], "--g", spread_files["g"])
        assert code == 0
        assert "pieces:" in out
        assert "x=2 jump=0 slope_after=1" in out
        assert "x=3 jump=0 slope_after=0" in out
        assert "upper: 1" in out
        assert "series:" in out
        assert "2.5,0.5" in out

    def test_json_output(self, spread_files, capsys):
        code, out, _ = run(capsys, "min-gamma", "--format", "json",
                           "--f", spread_files["f"], "--g", spread_files["g"])
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] == 0 and obj["upper"] == 1
        xs = [p["x"] for p in obj["gamma"]["pieces"]]
        assert xs == [2.0, 3.0]
        assert [1.0, 0.0] in obj["series"] and [3.0, 1.0] in obj["series"]

    def test_not_ordered_is_a_negative_verdict(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        g = tmp_path / "g.csv"
        f.write_text("-1\n1\n")
        g.write_text("-0.25\n")
        code, out, _ = run(capsys, "min-gamma", "--f", str(f), "--g", str(g))
        assert code == 1
        assert "NotSSDOrdered" in out and "1.66666666667" in out
        code, out, _ = run(capsys, "min-gamma", "--format", "json",
                           "--f", str(f), "--g", str(g))
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "NotSSDOrdered"
        assert obj["ratio"] == pytest.approx(5.0 / 3.0)


class TestMinEpsilon:
    def test_value_and_infeasible(self, crossing_files, capsys):
        code, out, _ = run(capsys, "min-epsilon",
                           "--f", crossing_files["f"], "--g", crossing_files["g"])
        assert code == 0
        assert "epsilon: 0.333333333333" in out
        # swapped roles: deficit exceeds surplus, past the 1/2 ceiling
        code, out, _ = run(capsys, "min-epsilon", "--format", "json",
                           "--f", crossing_files["g"], "--g", crossing_files["f"])
        assert code == 1
        obj = json.loads(out)
        assert obj["infeasible"] is True
        assert obj["value"] == pytest.approx(2.0 / 3.0)


class TestGreediness:
    def test_profile_output(self, tmp_path, capsys):
        u = sd.UtilityPWL((-2.0, -1.0, 0.0), (1.0, 2.0, 0.8, 1.0))
        path = tmp_path / "u.json"
        path.write_text(serialize_utility(u))
        code, out, _ = run(capsys, "greediness", "--u", str(path))
        assert code == 0
        assert "global: 2" in out
        assert "from=-inf value=2" in out
        assert "from=-1 value=1.25" in out
        assert "from=0 value=1" in out
        code, out, _ = run(capsys, "greediness", "--format", "json",
                           "--u", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["global"] == 2
        assert obj["breaks"] == [-2.0, -1.0, 0.0]
        assert obj["values"] == [2.0, 1.25, 1.25, 1.0]


class TestOracle:
    def test_agreement_on_holding_instance(self, spread_files, capsys):
        code, out, _ = run(capsys, "oracle", "--order", "mfsd",
                           "--f", spread_files["f"], "--g", spread_files["g"],
                           "--gamma", spread_files["gamma"], "--samples", "50")
        assert code == 0
        assert "agree: true" in out
        assert "samples: 50" in out

    def test_failing_instance_adds_constructed_witness(self, spread_files, capsys):
        code, out, _ = run(capsys, "oracle", "--order", "mfsd", "--format", "json",
                           "--f", spread_files["f"], "--g", spread_files["g"],
                           "--gamma-const", "0.9", "--samples", "50")
        assert code == 0
        obj = json.loads(out)
        assert obj["holds"] is False and obj["agree"] is True
        assert obj["samples"] == 51
        assert obj["min_gap"] < -1e-12
        assert obj["violating"]["kind"] == "utility"
        assert "violating utility" in obj["note"]

    def test_seed_reproducibility(self, spread_files, capsys):
        argv = ("oracle", "--order", "mfsd", "--seed", "5", "--samples", "40",
                "--f", spread_files["f"], "--g", spread_files["g"],
                "--gamma-const", "0.9")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestGenerate:
    def test_local_interpolation_writes_gamma_only(self, tmp_path, capsys):
        code, out, _ = run(capsys, "generate", "local-interpolation",
                           "--t1", "2", "--t2", "2.5", "--gamma-mid", "0.6",
                           "--out", str(tmp_path))
        assert code == 0
        assert out.count("wrote ") == 1
        g = json.loads((tmp_path / "gamma.json").read_text())
        assert g["kind"] == "gamma"
        assert [p["x"] for p in g["pieces"]] == [2.0, 2.5]

    def test_squares_then_check(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate", "squares",
                         "--gamma-target", "0.5", "--gamma-const", "0.75",
                         "--t0", "1", "--out", str(tmp_path))
        assert code == 0
        f, g = str(tmp_path / "f.json"), str(tmp_path / "g.json")
        assert run(capsys, "check", "--order", "mfsd", "--f", f, "--g", g,
                   "--gamma-const", "0.75")[0] == 0
        assert run(capsys, "check", "--order", "frac", "--f", f, "--g", g,
                   "--gamma-const", "0.5")[0] == 1

    def test_theta_family_then_greediness(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate", "theta-family",
                         "--theta", "3", "--variant", "MF", "--out", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "greediness", "--u", str(tmp_path / "u.json"))
        assert code == 0 and "global: " in out

    def test_constructor_violations_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "identical-means",
                           "--mu", "1", "--eps", "1", "--out", str(tmp_path))
        assert code == 2
        assert "error: need mu > eps > 0" in err
        code, _, err = run(capsys, "generate", "squares",
                           "--gamma-target", "0.5", "--gamma-const", "0.5",
                           "--t0", "0", "--out", str(tmp_path))
        assert code == 2
        assert "error:" in err


class TestToleranceConfig:
    def test_env_var_and_flag_precedence(self, crossing_files, capsys, monkeypatch):
        argv = ("check", "--order", "frac", "--f", crossing_files["f"],
                "--g", crossing_files["g"], "--gamma-const", "0.4999999")
        assert run(capsys, *argv)[0] == 1
        monkeypatch.setenv("SDORDER_TOL", "1e-6")
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--tol", "1e-9")[0] == 1

    def test_invalid_env_value(self, crossing_files, capsys, monkeypatch):
        monkeypatch.setenv("SDORDER_TOL", "abc")
        code, _, err = run(capsys, "check", "--order", "ssd",
                           "--f", crossing_files["f"], "--g", crossing_files["g"])
        assert code == 2
        assert "SDORDER_TOL" in err


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--order", "fsd",
                           "--f", "/nonexistent/f.json", "--g", "/nonexistent/g.json")
        assert code == 2 and "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("nope")
        code, _, err = run(capsys, "check", "--order", "fsd",
                           "--f", str(p), "--g", str(p))
        assert code == 2 and "bad.json:1:" in err

    def test_wrong_kind(self, spread_files, capsys):
        code, _, err = run(capsys, "check", "--order", "fsd",
                           "--f", spread_files["gamma"], "--g", spread_files["g"])
        assert code == 2
        assert "expected kind 'cdf'" in err

    def test_non_increasing_pieces(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text('{"kind": "cdf", "pieces": [{"x": 1, "jump": 0.5,'
                     ' "slope_after": 0}, {"x": 1, "jump": 0.5, "slope_after": 0}]}')
        code, _, err = run(capsys, "check", "--order", "fsd",
                           "--f", str(p), "--g", str(p))
        assert code == 2
        assert "strictly increasing" in err

    def test_decreasing_gamma_file(self, spread_files, tmp_path, capsys):
        p = tmp_path / "down.json"
        p.write_text('{"kind": "gamma", "pieces": [{"x": 0, "jump": 0.5,'
                     ' "slope_after": 0}, {"x": 1, "jump": -0.2, "slope_after": 0}]}')
        code, _, err = run(capsys, "check", "--order", "mfsd",
                           "--f", spread_files["f"], "--g", spread_files["g"],
                           "--gamma", str(p))
        assert code == 2 and "error:" in err

    def test_gamma_vanishing_under_deficit(self, spread_files, tmp_path, capsys):
        p = tmp_path / "zero.json"
        p.write_text('{"kind": "gamma", "pieces": [{"x": 100, "jump": 1,'
                     ' "slope_after": 0}]}')
        for command in ("check", "oracle"):
            code, _, err = run(capsys, command, "--order", "ffsd",
                               "--f", spread_files["f"], "--g", spread_files["g"],
                               "--gamma", str(p))
            assert code == 2 and "error:" in err

    def test_bad_csv_line(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        p.write_text("1\nxx\n")
        code, _, err = run(capsys, "check", "--order", "fsd",
                           "--f", str(p), "--g", str(p))
        assert code == 2
        assert "s.csv:2: not a number" in err

    def test_missing_order_arguments(self, spread_files, capsys):
        f, g = spread_files["f"], spread_files["g"]
        code, _, err = run(capsys, "check", "--order", "mfsd", "--f", f, "--g", g)
        assert code == 2 and "this order needs" in err
        code, _, err = run(capsys, "check", "--order", "frac", "--f", f, "--g", g)
        assert code == 2 and "frac needs" in err
        code, _, err = run(capsys, "check", "--order", "easd", "--f", f, "--g", g)
        assert code == 2 and "easd needs" in err

    def test_bad_runtime_config(self, spread_files, capsys):
        f, g = spread_files["f"], spread_files["g"]
        assert run(capsys, "check", "--order", "ssd", "--f", f, "--g", g,
                   "--tol", "-1")[0] == 2
        assert run(capsys, "oracle", "--order", "mfsd", "--f", f, "--g", g,
                   "--gamma-const", "0.5", "--samples", "0")[0] == 2

    def test_usage_errors_from_argparse(self, capsys):
        assert run(capsys, "check", "--order", "zzz", "--f", "a", "--g", "b")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2
        assert run(capsys, "--help")[0] == 0


class TestWireRoundTrips:
    def test_piecewise_carriers(self):
        ramp = sd.PiecewiseFn(breaks=(2.0, 3.0), left=0.0,
                              coeffs=((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)))
        quad = sd.PiecewiseFn(breaks=(0.0, 1.0), left=0.0,
                              coeffs=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))
        for carrier in (ramp, quad):
            obj = _carrier_to_pieces(carrier, "gamma")
            back = _pieces_to_carrier(obj, "mem", "gamma")
            assert back == carrier

    def test_distribution_files(self, tmp_path):
        F = sd.DiscretePMF(((0.5, 0.25), (1.0, 0.5), (2.5, 0.25))).to_distribution()
        path = tmp_path / "d.json"
        path.write_text(serialize_distribution(F))
        back = load_distribution(str(path), 1e-9)
        assert back.carrier == F.carrier
        assert back.mean == pytest.approx(F.mean)

    def test_utility_files(self, tmp_path):
        u = sd.UtilityPWL((-1.0, 2.0), (0.5, 1.5, 0.25), anchor=(2.0, 3.0))
        path = tmp_path / "u.json"
        path.write_text(serialize_utility(u))
        back = load_utility(str(path))
        assert back.breaks == u.breaks
        assert back.slopes == u.slopes
        assert back.anchor == u.anchor

    def test_constant_epsilon_survives_left_extension(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(serialize_epsilon(sd.EpsilonFn.const(0.3)))
        from sdorder.cli import load_epsilon
        e = load_epsilon(str(path), 1e-9)
        for t in (-10.0, -0.5, 0.0, 7.0):
            assert e.value(t) == 0.3

    def test_gamma_left_tail_survives(self, tmp_path):
        F, G, _ = sd.example_identical_means(2.0, 1.0)
        step = sd.validate_gamma(sd.PiecewiseFn.step((-0.5, 0.5), (0.5, 0.75, 1.0)))
        envelope = sd.min_gamma(F, G)
        path = tmp_path / "gamma.json"
        for g in (sd.GammaFn.const(0.5), step, envelope):
            path.write_text(serialize_gamma(g))
            back = load_gamma(str(path), 1e-9)
            for t in (-10.0, -1.0, -0.5, 0.0, 0.5, 2.0, 2.5, 3.0, 10.0):
                assert back.value(t) == pytest.approx(g.value(t), abs=1e-12)
        # a zero left tail is written as before, without the field
        assert "left" not in json.loads(serialize_gamma(envelope))

    def test_min_gamma_output_reloads(self, spread_files, tmp_path, capsys):
        code, out, _ = run(capsys, "min-gamma", "--format", "json",
                           "--f", spread_files["f"], "--g", spread_files["g"])
        assert code == 0
        gam = tmp_path / "env.json"
        gam.write_text(json.dumps(json.loads(out)["gamma"]) + "\n")
        code, out, _ = run(capsys, "check", "--order", "mfsd",
                           "--f", spread_files["f"], "--g", spread_files["g"],
                           "--gamma", str(gam))
        assert code == 0 and "holds: true" in out


def _source_env():
    """Environment whose PYTHONPATH is the directory of the imported package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sd.__file__).resolve().parent.parent)
    return env


class TestEntryPoints:
    def test_console_script_installed(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["sdorder"]
        installed = [ep for ep in entry_points(group="console_scripts")
                     if ep.name == "sdorder"]
        if installed:
            assert installed[0].value == target
            script = shutil.which("sdorder")
        else:
            # The launcher pip writes for a console-script entry point.
            ep = EntryPoint(name="sdorder", value=target, group="console_scripts")
            launcher = tmp_path / "sdorder"
            launcher.write_text(f"#!{sys.executable}\n"
                                "import sys\n"
                                f"from {ep.module} import {ep.attr}\n"
                                f"sys.exit({ep.attr}())\n")
            launcher.chmod(0o755)
            script = shutil.which("sdorder", path=str(tmp_path))
        assert script is not None
        env = _source_env()
        r = subprocess.run([script, "--help"], capture_output=True, text=True,
                           env=env)
        assert r.returncode == 0, r.stderr
        assert "sdorder" in r.stdout
        missing = str(tmp_path / "missing.json")
        r = subprocess.run([script, "check", "--order", "fsd",
                            "--f", missing, "--g", missing],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 2, r.stderr
        assert "error:" in r.stderr

    def test_module_invocation(self):
        r = subprocess.run([sys.executable, "-m", "sdorder.cli", "--help"],
                           capture_output=True, text=True, env=_source_env())
        assert r.returncode == 0
        assert "sdorder" in r.stdout
