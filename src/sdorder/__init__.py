"""Deciders for stochastic dominance orders and their weighted relaxations.

The package answers, for a pair of finitely-represented distributions,
whether one dominates the other in the first- or second-order sense or
in one of the interpolating orders steered by a weight function, and it
computes the smallest weight that makes the answer yes.  Utilities with
piecewise-linear marginal value connect every order to expected-utility
comparisons, with samplers to cross-check each verdict.
"""

from importlib import import_module as _import_module

from . import distributions, dominance, gamma, piecewise
from .distributions import *  # noqa: F403
from .dominance import *  # noqa: F403
from .gamma import *  # noqa: F403
from .piecewise import *  # noqa: F403

# The utility, oracle and generator layers load on first use of one of
# their names, so a process that only decides never pays their import
# (nor that of random, fractions and decimal).
_LAZY = {
    **dict.fromkeys((
        "NoValidRational",
        "ParameterViolation",
        "ThetaVariant",
        "example_identical_means",
        "example_local_interpolation",
        "example_squares",
        "example_strict_inclusion",
        "example_theta_family",
    ), "generators"),
    **dict.fromkeys((
        "AgreementReport",
        "SamplerConfig",
        "agreement_easd",
        "agreement_ffsd",
        "agreement_mfsd",
        "greediness_oracle",
        "sample_ff_utilities",
        "sample_mf_utilities",
    ), "oracle"),
    **dict.fromkeys((
        "ExclusionKind",
        "ExclusionVerdict",
        "GreedinessProfile",
        "MembershipVerdict",
        "NonPositiveSlope",
        "NonStepGammaOnNegativeRegion",
        "UtilityPWL",
        "ara_bound_report",
        "check_dpm_gamma",
        "check_membership_asd",
        "check_membership_fractional",
        "combine",
        "expected_utility_gap",
        "global_greediness",
        "greediness_profile",
        "make_base_asd",
        "make_base_ff",
        "make_base_mf",
        "mfsd_exclusion",
        "partial_greediness",
        "translate",
    ), "utility"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


# Every eager layer's list, then every lazily loaded name, each once.
__all__ = list(dict.fromkeys([
    *distributions.__all__,
    *dominance.__all__,
    *gamma.__all__,
    *piecewise.__all__,
    *_LAZY,
]))

__version__ = "0.1.0"
