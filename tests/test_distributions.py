import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
import support
from sdorder import distributions
from sdorder.distributions import EmptyInput, ShiftCollapse, WeightMismatch


def pmfs():
    return st.integers(0, 10 ** 9).map(
        lambda s: support.dyadic_pmf(__import__("random").Random(s)))


def test_pmf_rejects_malformed_atoms():
    with pytest.raises(EmptyInput):
        sd.DiscretePMF(())
    with pytest.raises(ValueError):
        sd.DiscretePMF(((0.0, 0.5), (0.0, 0.5)))
    with pytest.raises(ValueError):
        sd.DiscretePMF(((0.0, -0.25), (1.0, 1.25)))
    with pytest.raises(ValueError):
        sd.DiscretePMF(((0.0, 0.25), (1.0, 0.25)))


def test_from_cdf_rejects_non_cdfs():
    with pytest.raises(ValueError):
        sd.Distribution.from_cdf(sd.PiecewiseFn.step((0.0,), (0.1, 1.0)))
    with pytest.raises(ValueError):
        sd.Distribution.from_cdf(sd.PiecewiseFn.step((0.0,), (0.0, 0.9)))
    with pytest.raises(ValueError):
        sd.Distribution.from_cdf(sd.PiecewiseFn.step((0.0, 1.0), (0.0, 0.8, 0.5)))
    with pytest.raises(ValueError):
        sd.Distribution.from_cdf(
            sd.PiecewiseFn((0.0,), 0.0, ((0.0, 0.0, 1.0),)))


def test_bare_constructor_rejects_non_cdfs():
    # an overshoot past 1 that would pass FSD and SSD against dirac(0.5)
    with pytest.raises(ValueError, match="a CDF cannot jump downward"):
        sd.Distribution(sd.PiecewiseFn.step((0.0, 1.0), (0.0, 1.5, 1.0)), 0.0, 0.0)
    with pytest.raises(ValueError, match="a CDF must be 0 before"):
        sd.Distribution(sd.PiecewiseFn.step((0.0,), (0.1, 1.0)), 0.0, 0.0)
    with pytest.raises(ValueError, match="a CDF must reach 1"):
        sd.Distribution(sd.PiecewiseFn.step((0.0,), (0.0, 0.9)), 0.0, 0.0)
    F = sd.from_samples([0.0, 1.0])
    # mean and left support are taken as given
    assert sd.Distribution(F.carrier, 0.25, -1.0).mean == 0.25


# ten jumps of 0.1 sum to 0.9999999999999999
TENTHS = sd.PiecewiseFn.step(tuple(map(float, range(10))), tuple(accumulate([0.0] + [0.1] * 10)))


def test_every_constructor_stores_a_last_level_near_one_as_one():
    assert TENTHS.coeffs[-1][0] < 1.0
    one = sd.PiecewiseFn(TENTHS.breaks, 0.0, (*TENTHS.coeffs[:-1], (1.0, 0.0, 0.0)))
    # the mean is read from the stored carrier
    assert sd.Distribution.from_cdf(TENTHS) == sd.Distribution.from_cdf(one)
    assert sd.Distribution(TENTHS, 4.5, 0.0).carrier == one
    M = sd.mixture([sd.dirac(float(i)) for i in range(10)], [0.1] * 10)
    assert M.carrier.coeffs[-1] == (1.0, 0.0, 0.0)


def test_a_mixture_of_tenths_is_ssd_ordered_with_a_min_gamma():
    # past the last break F - G was -1.1e-16: SSD held while min_gamma
    # raised NotSSDOrdered with ratio inf
    M = sd.mixture([sd.dirac(float(i)) for i in range(10)], [0.1] * 10)
    D = sd.dirac(4.5)
    assert sd.check_ssd(M, D).holds
    assert sd.min_gamma(M, D).upper == pytest.approx(1.0, abs=1e-12)


def test_builders_check_each_carrier_once(monkeypatch):
    calls = []
    check = distributions._cdf_mean
    monkeypatch.setattr(distributions, "_cdf_mean",
                        lambda carrier, tol: calls.append(carrier) or check(carrier, tol))
    F = sd.from_samples([0.0, 1.0])
    assert len(calls) == 1
    assert sd.shift(F, 0.5).mean == F.mean + 0.5
    sd.mixture([F, sd.shift(F, 1.0)], [0.5, 0.5])
    assert len(calls) == 1


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])


@NON_FINITE
@pytest.mark.parametrize("field,atoms", [
    ("mass", lambda v: ((0.0, v), (1.0, 1.0))),
    ("location", lambda v: ((0.0, 0.5), (v, 0.5))),
])
def test_pmf_rejects_non_finite_atoms(bad, field, atoms):
    with pytest.raises(ValueError, match=f"atom {field} must be finite"):
        sd.DiscretePMF(atoms(bad))


@NON_FINITE
@pytest.mark.parametrize("field,carrier", [
    ("slope", lambda v, build=sd.PiecewiseFn: build((0.0, 1.0), 0.0,
                                                    ((0.0, v, 0.0), (1.0, 0.0, 0.0)))),
    ("value", lambda v, build=sd.PiecewiseFn: build((0.0, 1.0), 0.0,
                                                    ((v, 0.0, 0.0), (1.0, 0.0, 0.0)))),
    ("breakpoint", lambda v, build=sd.PiecewiseFn: build((v,), 0.0, ((1.0, 0.0, 0.0),))),
])
def test_from_cdf_rejects_non_finite_pieces(bad, field, carrier):
    # the carrier rejects every number first, so from_cdf meets a non-finite
    # piece only in a carrier built without that check, as sums and scalings are
    with pytest.raises(ValueError, match=f"carrier {field} must be finite"):
        sd.Distribution.from_cdf(carrier(bad))
    if field != "breakpoint":
        with pytest.raises(ValueError, match=f"CDF {field} must be finite"):
            sd.Distribution.from_cdf(carrier(bad, sd.PiecewiseFn._trusted))


def test_shift_names_the_breakpoints_it_collapses():
    F, _, _ = sd.example_identical_means(2e-8, 1e-8)
    with pytest.raises(ShiftCollapse) as info:
        sd.shift(F, 1e9)
    err = info.value
    assert (err.shift, err.a, err.b) == (1e9, *F.carrier.breaks)
    assert err.a + err.shift == err.b + err.shift
    assert all(repr(v) in str(err) for v in (1e9, err.a, err.b))
    with pytest.raises(ValueError, match="shift amount must be finite"):
        sd.shift(F, math.nan)


@pytest.mark.parametrize("x, c", [(1e308, 1e308), (-1e308, -1e308)], ids=["up", "down"])
def test_shift_rejects_a_breakpoint_that_overflows(x, c):
    with pytest.raises(ValueError, match="moves the breakpoint") as info:
        sd.shift(sd.dirac(x), c)
    assert repr(c) in str(info.value) and repr(x) in str(info.value)
    assert sd.shift(sd.dirac(x), -c).carrier.breaks == (0.0,)


@NON_FINITE
def test_mixture_rejects_non_finite_weights(bad):
    with pytest.raises(WeightMismatch, match="finite"):
        sd.mixture([sd.dirac(0.0), sd.dirac(1.0)], [0.5, bad])


def test_dirac_shape():
    d = sd.dirac(1.5)
    assert d.cdf(1.4999) == 0.0
    assert d.cdf(1.5) == 1.0
    assert d.mean == 1.5
    assert d.left_support == 1.5


def test_from_samples_merges_ties():
    F = sd.from_samples([2.0, 1.0, 2.0, 3.0])
    assert F.carrier.breaks == (1.0, 2.0, 3.0)
    assert F.cdf(1.0) == 0.25
    assert F.cdf(2.0) == 0.75
    assert F.cdf(3.0) == 1.0
    with pytest.raises(EmptyInput):
        sd.from_samples([])
    with pytest.raises(ValueError):
        sd.from_samples([1.0, math.nan])


def test_pmf_round_trip_cdf_semantics():
    F = sd.DiscretePMF(((0.0, 0.25), (2.0, 0.75))).to_distribution()
    assert F.cdf(-0.5) == 0.0
    assert F.cdf(0.0) == 0.25
    assert F.cdf(1.9) == 0.25
    assert F.cdf(2.0) == 1.0
    assert F.mean == 1.5


@given(pmfs())
@settings(max_examples=50, deadline=None)
def test_mean_matches_atom_sum(p):
    F = p.to_distribution()
    assert F.mean == pytest.approx(sum(x * m for x, m in p.atoms), abs=1e-12)
    assert F.left_support == p.atoms[0][0]


@given(pmfs(), st.sampled_from([-2.0, -0.125, 0.0, 0.375, 1.5]))
@settings(max_examples=40, deadline=None)
def test_shift_translates_cdf_and_mean(p, c):
    F = p.to_distribution()
    S = sd.shift(F, c)
    assert S.mean == pytest.approx(F.mean + c, abs=1e-12)
    assert S.left_support == F.left_support + c
    for x, _ in p.atoms:
        assert S.cdf(x + c) == pytest.approx(F.cdf(x), abs=1e-12)


@given(pmfs(), pmfs(), st.integers(1, 15))
@settings(max_examples=40, deadline=None)
def test_mixture_is_convex_combination(p, q, w16):
    w = w16 / 16.0
    F, G = p.to_distribution(), q.to_distribution()
    M = sd.mixture([F, G], [w, 1.0 - w])
    assert M.mean == pytest.approx(w * F.mean + (1.0 - w) * G.mean, abs=1e-12)
    for x in [a for a, _ in p.atoms] + [a for a, _ in q.atoms]:
        assert M.cdf(x) == pytest.approx(
            w * F.cdf(x) + (1.0 - w) * G.cdf(x), abs=1e-12)


def test_mixture_weight_validation():
    F = sd.dirac(0.0)
    with pytest.raises(WeightMismatch):
        sd.mixture([F], [0.5, 0.5])
    with pytest.raises(WeightMismatch):
        sd.mixture([F, F], [0.7, 0.7])
    with pytest.raises(WeightMismatch):
        sd.mixture([F, F], [-0.5, 1.5])


def test_convolve_small_case_by_hand():
    X = sd.DiscretePMF(((0.0, 0.5), (1.0, 0.5)))
    Z = sd.DiscretePMF(((0.0, 0.25), (1.0, 0.75)))
    C = sd.convolve(X, Z)
    assert C.atoms == ((0.0, 0.125), (1.0, 0.375 + 0.125), (2.0, 0.375))


@given(pmfs(), pmfs())
@settings(max_examples=40, deadline=None)
def test_convolve_mean_adds_and_mass_sums_to_one(p, q):
    C = sd.convolve(p, q)
    assert sum(m for _, m in C.atoms) == pytest.approx(1.0, abs=1e-12)
    mean_c = sum(x * m for x, m in C.atoms)
    mean_p = sum(x * m for x, m in p.atoms)
    mean_q = sum(x * m for x, m in q.atoms)
    assert mean_c == pytest.approx(mean_p + mean_q, abs=1e-12)
    assert C.atoms[0][0] == p.atoms[0][0] + q.atoms[0][0]
