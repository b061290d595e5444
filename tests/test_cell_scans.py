"""A step pair's graded orders read the geometry's own cells: SSD, FRAC
and a constant MFSD take the slack at cell starts only, FFSD and EASD
walk the cells and the weight's breaks once, and min_gamma emits only the
pieces that change the level or slope. Each gives the bits of the walks
it replaced (ports in support.py), on a fresh, a cached and a derived
geometry, in both directions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
import sdorder.geometry as geometry
import support
from test_geometry import STEP, cdfs, steps

TOLS = st.sampled_from((1e-9, 0.0, 0.25))
LEVELS = st.sampled_from((0.0, 1.0 / 3.0, 0.5, 1.0))
# breaks at -1/3 and 2/3, where steps() and cdfs() put atoms
EPS_STEP = sd.validate_epsilon(sd.PiecewiseFn.step((-1.0 / 3.0, 2.0 / 3.0), (1 / 3, 1 / 7, 2 / 5)))
PAIRS = st.one_of(steps(), steps(), cdfs())


@pytest.fixture(autouse=True)
def _empty_cache():
    geometry._last = None
    yield
    geometry._last = None


def _shown(call, *args) -> str:
    """repr of a result, or of the error it raised."""
    try:
        return repr(call(*args))
    except (ValueError, ZeroDivisionError) as e:
        return f"{type(e).__name__}: {e}"


def _matches(call, port, F, G) -> None:
    """call gives port's result on (F, G) and (G, F): built fresh, read
    from the cache, and derived from the other direction's entry."""
    for A, B in ((F, G), (G, F)):
        geometry._last = None
        want, back = _shown(port, A, B), _shown(port, B, A)
        assert _shown(call, A, B) == want  # fresh
        assert _shown(call, A, B) == want  # cached
        assert _shown(call, B, A) == back  # derived from (A, B)


@settings(max_examples=300, deadline=None)
@given(steps(), steps(), LEVELS, TOLS)
def test_constant_weight_scans_match_the_walk(F, G, c, tol):
    const = sd.PiecewiseFn.constant
    _matches(lambda A, B: sd.check_ssd(A, B, tol),
             lambda A, B: support.walked_graded(sd.OrderTag.SSD, A, B, const(1.0), tol), F, G)
    _matches(lambda A, B: sd.check_fractional(A, B, c, tol),
             lambda A, B: support.walked_graded(sd.OrderTag.FRAC, A, B, const(c), tol), F, G)
    _matches(lambda A, B: sd.check_mfsd(A, B, sd.GammaFn.const(c), tol),
             lambda A, B: support.walked_graded(sd.OrderTag.MFSD, A, B, const(c), tol), F, G)


@settings(max_examples=300, deadline=None)
@given(steps(), steps(), st.one_of(LEVELS.map(sd.GammaFn.const), st.just(STEP)), TOLS)
def test_step_weight_ffsd_matches_the_walks(F, G, g, tol):
    _matches(lambda A, B: sd.check_ffsd(A, B, g, tol),
             lambda A, B: support.walked_ffsd(A, B, g, tol), F, G)


@settings(max_examples=300, deadline=None)
@given(steps(), steps(), st.sampled_from((sd.EpsilonFn.const(1.0 / 3.0), sd.EpsilonFn.const(0.25),
                                          EPS_STEP)), TOLS)
def test_easd_matches_the_walks(F, G, e, tol):
    _matches(lambda A, B: sd.check_easd(A, B, e, tol),
             lambda A, B: support.walked_easd(A, B, e, tol), F, G)


@settings(max_examples=300, deadline=None)
@given(PAIRS, PAIRS, TOLS)
def test_min_gamma_matches_the_compress_fold(F, G, tol):
    # linear-piece pairs too: their envelope has sloped and curved pieces
    _matches(lambda A, B: sd.min_gamma(A, B, tol),
             lambda A, B: support.folded_min_gamma(A, B, tol), F, G)


@settings(max_examples=300, deadline=None)
@given(PAIRS, PAIRS, LEVELS, TOLS)
def test_frac_is_mfsd_under_the_constant(F, G, c, tol):
    for A, B in ((F, G), (G, F)):
        frac = sd.check_fractional(A, B, c, tol)
        mfsd = sd.check_mfsd(A, B, sd.GammaFn.const(c), tol)
        assert (repr((frac.holds, frac.margin, frac.witness_t))
                == repr((mfsd.holds, mfsd.margin, mfsd.witness_t)))
