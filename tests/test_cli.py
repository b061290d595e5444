"""Command-line front-end: wire formats, exit codes, output shapes."""

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest

import sdorder as sd
from sdorder.cli import (
    _build_parser,
    _carrier_to_pieces,
    _gamma_series,
    _pieces_to_carrier,
    load_distribution,
    load_gamma,
    main,
    serialize_distribution,
    serialize_epsilon,
    serialize_gamma,
)
from sdorder.cli_extra import _utility_obj, load_utility, serialize_utility


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

    def test_a_pair_whose_span_overflows_exits_2(self, tmp_path, capsys):
        f, g = tmp_path / "f.csv", tmp_path / "g.csv"
        f.write_text("-9e307\n")
        g.write_text("9e307\n")
        for command in (["check", "--order", "ssd"], ["check", "--order", "fsd"],
                        ["check", "--order", "ffsd", "--gamma-const", "0.5"],
                        ["min-gamma"], ["min-epsilon"]):
            for a, b in ((g, f), (f, g)):
                code, out, err = run(capsys, *command, "--f", str(a), "--g", str(b))
                assert (code, out) == (2, "") and "pair span must be finite" in err

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

    def test_ten_tenths_get_one_answer_from_every_command(self, tmp_path, capsys):
        # the jumps sum to 0.9999999999999999, which the loader stores as 1
        f, g, eps = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "eps.json"
        f.write_text(json.dumps({"kind": "cdf", "pieces": [
            {"x": i, "jump": 0.1, "slope_after": 0.0} for i in range(10)]}))
        g.write_text('{"kind": "cdf", "pieces": [{"x": 4.5, "jump": 1, "slope_after": 0}]}')
        eps.write_text(serialize_epsilon(sd.EpsilonFn.const(0.25)))
        pair = ("--f", str(f), "--g", str(g))
        for order in (("ssd",), ("ffsd", "--gamma-const", "1")):
            code, out, err = run(capsys, "check", "--order", *order, *pair)
            assert (code, err) == (0, "") and "holds: true" in out
        code, out, err = run(capsys, "min-gamma", *pair)
        assert (code, err) == (0, "") and "upper: 1\n" in out
        code, out, err = run(capsys, "check", "--order", "easd", "--epsilon", str(eps), *pair)
        assert (code, err) == (1, "") and "margin: -2.5\n" in out

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

    @pytest.mark.parametrize("fmt, expected", [
        ("text", "pieces:\n  x=0 jump=0 slope_after=0\nupper: 0\nseries:\n  0,0\n  1,0\n"),
        ("json", '{"gamma": {"kind": "gamma", "pieces": [{"x": 0.0, "jump": 0.0, '
                 '"slope_after": 0.0}]}, "lower": 0.0, "upper": 0.0, '
                 '"series": [[0.0, 0.0], [1.0, 0.0]]}\n'),
    ])
    def test_no_deficit_prints_the_constant_zero(self, tmp_path, capsys, fmt, expected):
        f = tmp_path / "f.csv"
        g = tmp_path / "g.csv"
        f.write_text("0\n")
        g.write_text("1\n")
        code, out, _ = run(capsys, "min-gamma", "--f", str(f), "--g", str(g),
                           "--format", fmt)
        assert (code, out) == (0, expected)


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


def _options(parser, path=""):
    """{subcommand: [option, ...]} over the parser tree, without -h."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found.update(_options(child, f"{path} {name}".strip()))
    opts = [a.option_strings[-1] for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]
    if opts:
        found[path] = sorted(opts)
    return found


class TestOptionSets:
    PAIR = ["--f", "--g", "--format", "--tol"]
    WEIGHT = ["--epsilon", "--gamma", "--gamma-const", "--order"]

    def test_each_subcommand_has_only_the_options_it_reads(self):
        assert _options(_build_parser()) == {
            "check": sorted(self.PAIR + self.WEIGHT),
            "min-gamma": sorted(self.PAIR),
            "min-epsilon": sorted(self.PAIR),
            "greediness": ["--format", "--u"],
            "oracle": sorted(self.PAIR + self.WEIGHT + ["--samples", "--seed"]),
            "generate identical-means": ["--eps", "--mu", "--out"],
            "generate local-interpolation": ["--gamma-mid", "--out", "--t1", "--t2"],
            "generate squares": ["--gamma", "--gamma-const", "--gamma-target", "--out",
                                 "--t0", "--tol"],
            "generate strict-inclusion": ["--c", "--gamma", "--gamma-const", "--out",
                                          "--t", "--tol"],
            "generate theta-family": ["--grid", "--out", "--theta", "--variant"],
        }
        assert sum(map(len, _options(_build_parser()).values())) == 51

    def test_an_option_the_command_does_not_read_is_a_usage_error(self, spread_files,
                                                                   tmp_path, capsys):
        assert run(capsys, "generate", "theta-family", "--theta", "3", "--variant", "MF",
                   "--out", str(tmp_path))[0] == 0
        f, g, u = spread_files["f"], spread_files["g"], str(tmp_path / "u.json")
        for argv in (("check", "--order", "ssd", "--f", f, "--g", g, "--seed", "1"),
                     ("min-gamma", "--f", f, "--g", g, "--samples", "5"),
                     ("greediness", "--u", u, "--tol", "1e-6"),
                     ("generate", "identical-means", "--mu", "2", "--eps", "1",
                      "--out", str(tmp_path / "im"), "--format", "json")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "unrecognized arguments" in err, argv
        assert not (tmp_path / "im").exists()

    def test_commands_that_compare_nothing_ignore_the_tolerance_variable(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SDORDER_TOL", "abc")
        assert run(capsys, "generate", "theta-family", "--theta", "3", "--variant", "MF",
                   "--out", str(tmp_path))[0] == 0
        code, out, err = run(capsys, "greediness", "--u", str(tmp_path / "u.json"))
        assert code == 0 and "global: " in out and err == ""
        code, _, err = run(capsys, "generate", "squares", "--gamma-target", "0.5",
                           "--gamma-const", "0.75", "--t0", "1", "--out", str(tmp_path))
        assert code == 2 and "SDORDER_TOL" in err

    def test_oracle_still_needs_a_sample(self, spread_files, capsys):
        code, out, err = run(capsys, "oracle", "--order", "mfsd", "--f", spread_files["f"],
                             "--g", spread_files["g"], "--gamma-const", "0.5",
                             "--samples", "0")
        assert code == 2 and out == "" and "--samples must be at least 1" in err


# (argv before --help, length, SHA-256) of each help text at 80 columns: the
# parser lists every command, wherever the code that runs it lives
HELP_BYTES = [
    ((), 639, "806ae3162391130313314ff3758b3fecfa04191f5882023ae439a0e06517c806"),
    (("check",), 708, "ab746a35e2bf9f3953898e53386a42baf6b000694d2f80f7c0075f82899e455f"),
    (("min-gamma",), 357, "068fc43477b5fa88af4d943037b9e227a57c80d92628a237695f5aa060ce1071"),
    (("min-epsilon",), 359, "59a15f1b4578f3ad569e2bc68d69894c7375cb1b4d8978c906d856453110f4d7"),
    (("greediness",), 186, "1817a6e5cc67f213cd62d17dba650833b1fb2c2b6409944ab1afde90d5db6bf0"),
    (("oracle",), 775, "2e64648794edb76eb523e159945399a343e2fba3a3f4cd61990a572b05e8fc18"),
    (("generate",), 324, "7e4f840aca6573d66a40d0cf651073bcbadb5d516454c417d0641ac25544c37f"),
    (("generate", "identical-means"), 184,
     "a4e42c972a4a282438846a634d870fa7d9fca8ac0b9cada2aef00da3f34bdd66"),
    (("generate", "local-interpolation"), 294,
     "d32b9715eab1e40ea094d931d3aa397ab943335c08c0367d097d008f1466fc6c"),
    (("generate", "squares"), 551,
     "5f88e8810490b5d2c04163c9ffbbf7aa1f145d59a5d8b0df6c0b8d86779a682a"),
    (("generate", "strict-inclusion"), 530,
     "3166ee68b975c7142785a53757bea215fdc06be6cc4a7c52bb9faa47788060fd"),
    (("generate", "theta-family"), 288,
     "dd03acc403df25969eb7d847decfc3a00ffd18d1729fac2ea131bc9716a648bf"),
]


@pytest.mark.parametrize("argv, size, digest", HELP_BYTES,
                         ids=[" ".join(h[0]) or "top" for h in HELP_BYTES])
def test_help_keeps_its_bytes(capsys, monkeypatch, argv, size, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err, len(out)) == (0, "", size)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_later_piece_missing_x(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text('{"kind":"cdf","pieces":[{"x":0,"jump":0.5,"slope_after":0},'
                     '{"jump":0.5,"slope_after":0}]}')
        code, _, err = run(capsys, "check", "--order", "fsd",
                           "--f", str(p), "--g", str(p))
        assert code == 2
        assert "error:" in err and "piece 1: missing 'x'" in err

    @pytest.mark.parametrize("kind, field", [
        ("cdf", "x"), ("cdf", "jump"), ("cdf", "slope_after"), ("cdf", "quad"),
        ("gamma", "left")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_carrier_numbers(self, spread_files, tmp_path, capsys,
                                        kind, field, bad):
        pieces = [{"x": 0.0, "jump": 0.5, "slope_after": 0.0},
                  {"x": 1.0, "jump": 0.5, "slope_after": 0.0}]
        obj = {"kind": kind, "pieces": pieces}
        if field == "left":
            obj["left"] = bad
        else:
            pieces[0][field] = bad
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))   # json writes NaN and Infinity literals
        if kind == "cdf":
            argv = ("check", "--order", "fsd", "--f", str(p), "--g", spread_files["g"])
        else:
            argv = ("check", "--order", "mfsd", "--f", spread_files["f"],
                    "--g", spread_files["g"], "--gamma", str(p))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error:" in err and "not a finite number" in err

    @pytest.mark.parametrize("where", ["anchor_x", "anchor_value", "from", "slope"])
    def test_non_finite_utility_numbers(self, tmp_path, capsys, where):
        obj = {"kind": "utility", "anchor": {"x": 0.0, "value": 0.0},
               "segments": [{"from": "-inf", "slope": 1.0}, {"from": 0.0, "slope": 0.5}]}
        if where == "anchor_x":
            obj["anchor"]["x"] = math.nan
        elif where == "anchor_value":
            obj["anchor"]["value"] = math.inf
        else:
            obj["segments"][1][where] = math.nan
        p = tmp_path / "u.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "greediness", "--u", str(p))
        assert code == 2 and out == ""
        assert "error:" in err and "not a finite number" in err

    @pytest.mark.parametrize("order", ["frac", "mfsd", "ffsd"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_gamma_const(self, spread_files, capsys, order, bad):
        code, out, err = run(capsys, "check", "--order", order,
                             "--f", spread_files["f"], "--g", spread_files["g"],
                             "--gamma-const", bad)
        assert code == 2 and out == ""
        assert "error: --gamma-const" in err

    @pytest.mark.parametrize("value, bound", [("1.5", "<= 1"), ("-0.1", ">= 0")])
    def test_frac_gamma_const_outside_the_unit_interval(self, spread_files, capsys,
                                                         value, bound):
        code, out, err = run(capsys, "check", "--order", "frac",
                             "--f", spread_files["f"], "--g", spread_files["g"],
                             "--gamma-const", value)
        assert code == 2 and out == ""
        assert err.strip() == f"error: --gamma-const: gamma must be {bound}"

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_tolerance(self, crossing_files, capsys, monkeypatch, bad):
        # the pair fails FSD, so a tolerance that swallows everything would
        # turn it into a hold
        argv = ("check", "--order", "fsd",
                "--f", crossing_files["f"], "--g", crossing_files["g"])
        assert run(capsys, *argv)[0] == 1
        code, out, err = run(capsys, *argv, "--tol", bad)
        assert code == 2 and out == "" and "positive and finite" in err
        monkeypatch.setenv("SDORDER_TOL", bad)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "positive and finite" in err

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

    @pytest.mark.parametrize("command,order,flag", [
        *(("check", order, flag) for order in ("fsd", "ssd")
          for flag in ("--gamma", "--gamma-const", "--epsilon")),
        ("check", "frac", "--gamma"), ("check", "frac", "--epsilon"),
        ("check", "mfsd", "--epsilon"), ("check", "ffsd", "--epsilon"),
        ("check", "easd", "--gamma"), ("check", "easd", "--gamma-const"),
        ("oracle", "mfsd", "--epsilon"), ("oracle", "ffsd", "--epsilon"),
        ("oracle", "easd", "--gamma"), ("oracle", "easd", "--gamma-const"),
    ])
    def test_weight_flag_the_order_does_not_read(self, spread_files, tmp_path, capsys,
                                                 command, order, flag):
        f, g = spread_files["f"], spread_files["g"]
        eps = tmp_path / "eps.json"
        eps.write_text(serialize_epsilon(sd.EpsilonFn.const(0.375)))
        reads = {"frac": ["--gamma-const", "0.5"], "mfsd": ["--gamma-const", "0.5"],
                 "ffsd": ["--gamma-const", "0.5"], "easd": ["--epsilon", str(eps)]}
        # the unread flag's value is never looked at, not even a missing file
        value = "nan" if flag == "--gamma-const" else "/nonexistent/w.json"
        code, out, err = run(capsys, command, "--order", order, "--f", f, "--g", g,
                             *reads.get(order, []), flag, value)
        assert code == 2 and out == ""
        assert f"error: {flag} is not read by --order {order}" in err

    @pytest.mark.parametrize("command", ["check", "oracle"])
    @pytest.mark.parametrize("order", ["mfsd", "ffsd"])
    def test_gamma_file_and_constant_together(self, spread_files, capsys, command, order):
        code, out, err = run(capsys, command, "--order", order, "--f", spread_files["f"],
                             "--g", spread_files["g"], "--gamma", spread_files["gamma"],
                             "--gamma-const", "0.5")
        assert code == 2 and out == ""
        assert "error: give --gamma FILE or --gamma-const VALUE, not both" in err

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
        e = load_epsilon(str(path))
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


# Reference report formatter, written number by number: one print per line
# with "%.12g", and json.dumps of per-row dicts through float("%.12g").
# Every report must print exactly its bytes.


def _ref_num(x):
    if x is None:
        return None
    return float(f"{x:.12g}") if math.isfinite(x) else str(x)


def _ref_print(*lines):
    buf = io.StringIO()
    for line in lines:
        print(line, file=buf)
    return buf.getvalue()


def _ref_verdict_obj(v):
    return {
        "order": v.order_tag.value,
        "holds": v.holds,
        "witness_t": _ref_num(v.witness_t),
        "margin": _ref_num(v.margin),
        "diagnostics": [{"t": _ref_num(t), "lhs": _ref_num(l), "rhs": _ref_num(r)}
                        for t, l, r in v.diagnostics],
    }


def _ref_verdict(v, fmt):
    if fmt == "json":
        return _ref_print(json.dumps(_ref_verdict_obj(v)))
    lines = [f"order: {v.order_tag.value}", f"holds: {'true' if v.holds else 'false'}"]
    if v.witness_t is not None:
        lines.append(f"witness_t: {v.witness_t:.12g}")
    lines += [f"margin: {v.margin:.12g}", "diagnostics:"]
    lines += [f"  t={t:.12g} lhs={l:.12g} rhs={r:.12g}" for t, l, r in v.diagnostics]
    return _ref_print(*lines)


@pytest.fixture()
def zero_pair(tmp_path):
    """A pair with a -0.0 sample, which the carrier stores as 0.0, and
    repeat values. FRAC at the weight -0.0 reports rows with -0.0 (its
    rhs) and 0.0; EASD reports a row at t = inf."""
    f, g, eps = tmp_path / "f.csv", tmp_path / "g.csv", tmp_path / "eps.json"
    f.write_text("-0.0\n1\n1\n2\n")
    g.write_text("0.5\n1.5\n1.5\n")
    eps.write_text(serialize_epsilon(sd.EpsilonFn.const(0.375)))
    return str(f), str(g), str(eps)


class TestReportBytes:
    def test_inputs_hold_both_zero_signs_and_inf(self, zero_pair):
        F, G = (load_distribution(p, 1e-9) for p in zero_pair[:2])
        numbers = [x for row in sd.check_fractional(F, G, -0.0).diagnostics for x in row]
        assert any(x == 0.0 and math.copysign(1.0, x) < 0 for x in numbers)
        assert any(x == 0.0 and math.copysign(1.0, x) > 0 for x in numbers)
        assert len(set(numbers)) < len(numbers)
        eps = sd.EpsilonFn.const(0.375)
        assert sd.check_easd(F, G, eps).diagnostics[0][0] == math.inf

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("order", ["fsd", "ssd", "frac", "frac-negzero", "mfsd", "easd"])
    @pytest.mark.parametrize("swap", [False, True], ids=["FG", "GF"])
    def test_check(self, zero_pair, capsys, order, fmt, swap):
        f, g, eps = zero_pair
        if swap:
            f, g = g, f
        F, G = load_distribution(f, 1e-9), load_distribution(g, 1e-9)
        extra, v = {
            "fsd": ([], lambda: sd.check_fsd(F, G)),
            "ssd": ([], lambda: sd.check_ssd(F, G)),
            "frac": (["--gamma-const", "0.5"], lambda: sd.check_fractional(F, G, 0.5)),
            "frac-negzero": (["--gamma-const", "-0.0"],
                             lambda: sd.check_fractional(F, G, -0.0)),
            "mfsd": (["--gamma-const", "0.75"],
                     lambda: sd.check_mfsd(F, G, sd.GammaFn.const(0.75))),
            "easd": (["--epsilon", eps],
                     lambda: sd.check_easd(F, G, sd.EpsilonFn.const(0.375))),
        }[order]
        v = v()
        code, out, _ = run(capsys, "check", "--order", order.split("-")[0], "--f", f, "--g", g,
                           *extra, "--format", fmt)
        assert code == (0 if v.holds else 1)
        assert out == _ref_verdict(v, fmt)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("swap", [False, True], ids=["FG", "GF"])
    def test_min_gamma(self, zero_pair, capsys, fmt, swap):
        f, g, _ = zero_pair
        if swap:
            f, g = g, f
        F, G = load_distribution(f, 1e-9), load_distribution(g, 1e-9)
        code, out, _ = run(capsys, "min-gamma", "--f", f, "--g", g, "--format", fmt)
        try:
            gam = sd.min_gamma(F, G)
        except sd.NotSSDOrdered as e:
            assert code == 1
            assert out == (_ref_print(json.dumps({"error": "NotSSDOrdered",
                                                  "ratio": _ref_num(e.ratio)}))
                           if fmt == "json" else _ref_print(
                               f"NotSSDOrdered: deficit exceeds surplus (ratio {e.ratio:.12g})"))
            return
        assert code == 0
        obj = _carrier_to_pieces(gam.carrier, "gamma")
        series = _gamma_series(gam)
        if fmt == "json":
            assert out == _ref_print(json.dumps({
                "gamma": obj, "lower": _ref_num(gam.lower), "upper": _ref_num(gam.upper),
                "series": [[t, v] for t, v in series]}))
            return
        lines = ["pieces:"]
        for p in obj["pieces"]:
            extra = f" quad={p['quad']:.12g}" if "quad" in p else ""
            lines.append(f"  x={p['x']:.12g} jump={p['jump']:.12g}"
                         f" slope_after={p['slope_after']:.12g}{extra}")
        lines += [f"upper: {gam.upper:.12g}", "series:"]
        lines += [f"  {t:.12g},{v:.12g}" for t, v in series]
        assert out == _ref_print(*lines)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("swap", [False, True], ids=["FG", "GF"])
    def test_min_epsilon(self, zero_pair, capsys, fmt, swap):
        f, g, _ = zero_pair
        if swap:
            f, g = g, f
        F, G = load_distribution(f, 1e-9), load_distribution(g, 1e-9)
        r = sd.min_constant_epsilon(F, G)
        code, out, _ = run(capsys, "min-epsilon", "--f", f, "--g", g, "--format", fmt)
        if isinstance(r, sd.Infeasible):
            assert code == 1
            assert out == (_ref_print(json.dumps({"infeasible": True,
                                                  "value": _ref_num(r.value)}))
                           if fmt == "json" else _ref_print(
                               f"infeasible: no epsilon below 1/2 works (ratio {r.value:.12g})"))
        else:
            assert code == 0
            assert out == (_ref_print(json.dumps({"epsilon": _ref_num(r)}))
                           if fmt == "json" else _ref_print(f"epsilon: {r:.12g}"))

    @pytest.mark.parametrize("case", ["mfsd-fails", "mfsd-holds", "easd"])
    def test_oracle_json(self, spread_files, zero_pair, capsys, case):
        if case == "easd":
            f, g, eps = zero_pair
            argv = ["--epsilon", eps]
        else:
            f, g = spread_files["f"], spread_files["g"]
            argv = (["--gamma-const", "0.9"] if case == "mfsd-fails"
                    else ["--gamma", spread_files["gamma"]])
        F, G = load_distribution(f, 1e-9), load_distribution(g, 1e-9)
        grid = sorted(set(F.carrier.breaks) | set(G.carrier.breaks))
        scfg = sd.SamplerConfig(t_grid=(*grid, grid[-1] + 1.0), seed=3, count=20)
        if case == "easd":
            rep = sd.agreement_easd(F, G, sd.EpsilonFn.const(0.375), scfg)
        else:
            gam = (sd.GammaFn.const(0.9) if case == "mfsd-fails"
                   else load_gamma(spread_files["gamma"], 1e-9))
            rep = sd.agreement_mfsd(F, G, gam, scfg)
        code, out, _ = run(capsys, "oracle", "--order", case[:4], "--f", f, "--g", g,
                           *argv, "--seed", "3", "--samples", "20", "--format", "json")
        assert code == (0 if rep.agree else 1)
        obj = _ref_verdict_obj(rep.verdict)
        obj.update({
            "agree": rep.agree,
            "samples": rep.count,
            "min_gap": _ref_num(rep.min_gap),
            "violating": _utility_obj(rep.violating) if rep.violating else None,
            "note": rep.summary(),
        })
        assert out == _ref_print(json.dumps(obj))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_greediness(self, tmp_path, capsys, fmt):
        u = sd.UtilityPWL((-2.0, -1.0, -0.0, 0.5), (1.0, 2.0, 0.8, 1.0, 1.0))
        path = tmp_path / "u.json"
        path.write_text(serialize_utility(u))
        prof, g = sd.greediness_profile(u), sd.global_greediness(u)
        code, out, _ = run(capsys, "greediness", "--u", str(path), "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert out == _ref_print(json.dumps({
                "global": _ref_num(g), "breaks": list(prof.breaks),
                "values": [_ref_num(v) for v in prof.values]}))
            return
        lo = ["-inf"] + [f"{b:.12g}" for b in prof.breaks]
        assert out == _ref_print(f"global: {g:.12g}", "profile:",
                                 *(f"  from={s} value={v:.12g}"
                                   for s, v in zip(lo, prof.values)))


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
