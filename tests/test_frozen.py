"""The package's value types behave as the frozen dataclasses they replace.

Each type is compared with a `make_dataclass(..., frozen=True)` reference
built on the same field names, in the same order, with the same fields
left out of == and hash: repr, ==, hash, the refusal to set or delete any
attribute, and pickle, copy and deepcopy round trips.
"""

import copy
import pickle
from dataclasses import field, make_dataclass

import pytest

import sdorder as sd
from sdorder.geometry import pair_geometry

RAMP = sd.PiecewiseFn((0.0, 1.0), 0.0, ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)))


def _pair():
    return (sd.DiscretePMF(((0.0, 0.5), (2.0, 0.5))).to_distribution(),
            sd.DiscretePMF(((1.0, 1.0),)).to_distribution())


def _report():
    F, G = _pair()
    cfg = sd.SamplerConfig((0.0, 1.0, 2.0), seed=3, count=4)
    return sd.agreement_mfsd(F, G, sd.GammaFn.const(0.5), cfg)


def _utility(provenance="combine"):
    return sd.UtilityPWL((0.0, 1.0), (2.0, 1.0, 0.5), anchor=(1.0, 0.25),
                         provenance=provenance)


# (build an instance, its fields in order, the fields == and hash ignore)
CASES = {
    "PiecewiseFn": (lambda: RAMP, ("breaks", "left", "coeffs"), ()),
    "Distribution": (lambda: _pair()[0], ("carrier", "mean", "left_support"), ()),
    "DiscretePMF": (lambda: sd.DiscretePMF(((0.0, 0.25), (1.0, 0.75))), ("atoms",), ()),
    "PairGeometry": (lambda: pair_geometry(*_pair()), ("diff", "pos", "neg"), ()),
    "Infeasible": (lambda: sd.Infeasible(0.75), ("value",), ()),
    "GammaFn": (lambda: sd.GammaFn(RAMP), ("carrier", "lower", "upper"), ()),
    "EpsilonFn": (lambda: sd.EpsilonFn.const(0.25), ("carrier",), ()),
    "UtilityPWL": (_utility, ("breaks", "slopes", "anchor", "provenance"), ("provenance",)),
    "GreedinessProfile": (lambda: sd.greediness_profile(_utility()), ("breaks", "values"), ()),
    "MembershipVerdict": (lambda: sd.MembershipVerdict(False, (0.0, 1.0), "why"),
                          ("member", "pair", "note"), ()),
    "ExclusionVerdict": (lambda: sd.ExclusionVerdict(sd.ExclusionKind.INCONCLUSIVE, (0.5,),
                                                     "why"), ("kind", "points", "reason"), ()),
    "SamplerConfig": (lambda: sd.SamplerConfig((0.0, 1.0), seed=3, count=5),
                      ("t_grid", "seed", "count"), ()),
    "AgreementReport": (_report, ("verdict", "count", "min_gap", "violating", "agree"), ()),
    "Verdict": (lambda: sd.check_ssd(*_pair()),
                ("holds", "witness_t", "margin", "order_tag", "diagnostics"), ()),
}


def _reference(name, fields, uncompared):
    return make_dataclass(name, [(f, object, field(compare=f not in uncompared))
                                 for f in fields], frozen=True)


@pytest.mark.parametrize("name", CASES)
def test_repr_eq_and_hash_are_the_dataclass_ones(name):
    build, fields, uncompared = CASES[name]
    value = build()
    assert type(value).__name__ == name
    ref = _reference(name, fields, uncompared)(*(getattr(value, f) for f in fields))
    assert repr(value) == repr(ref)
    assert hash(value) == hash(ref)
    twin = build()
    assert value == twin and hash(value) == hash(twin) and not value != twin
    assert value != ref and (value == 0) is False


@pytest.mark.parametrize("name", CASES)
def test_no_attribute_can_be_set_or_deleted(name):
    build, fields, _ = CASES[name]
    value, shown = build(), repr(build())
    for attr in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert repr(value) == shown


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_copies_and_pickles_round_trip(name, how):
    value = CASES[name][0]()
    back = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
            "copy": copy.copy, "deepcopy": copy.deepcopy}[how](value)
    assert type(back) is type(value)
    assert back == value and repr(back) == repr(value) and hash(back) == hash(value)


def test_provenance_is_shown_but_neither_compared_nor_hashed():
    u, v = _utility("combine"), _utility(None)
    assert u == v and hash(u) == hash(v)
    assert repr(u) != repr(v) and "provenance='combine'" in repr(u)
    assert sd.translate(u, 0.5).provenance == "combine"


def test_a_changed_field_breaks_equality():
    assert sd.Infeasible(0.75) != sd.Infeasible(0.5)
    assert sd.GammaFn(RAMP) != sd.GammaFn.const(1.0)
    assert _utility() != sd.UtilityPWL((0.0, 1.0), (2.0, 1.0, 0.5))


def test_the_inherited_constructor_takes_fields_by_position_or_name():
    assert sd.MembershipVerdict(member=True, note="n", pair=None) == sd.MembershipVerdict(
        True, None, "n")
    for args, kwargs in (((True, None), {}), ((True, None, "n", 1), {}),
                         ((True, None), {"member": True}), ((True, None, "n"), {"other": 1})):
        with pytest.raises(TypeError):
            sd.MembershipVerdict(*args, **kwargs)


def test_gamma_tol_stays_keyword_only():
    assert sd.GammaFn(RAMP, tol=0.0).upper == 1.0
    with pytest.raises(TypeError):
        sd.GammaFn(RAMP, 1e-9)


def test_a_geometry_copy_keeps_its_built_views():
    geom = pair_geometry(*_pair())
    assert copy.copy(geom).__dict__.keys() == geom.__dict__.keys() >= {"Ap", "An"}
