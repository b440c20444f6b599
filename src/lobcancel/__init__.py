"""Limit-order-book reconstruction and cancellation position profiling."""

from .orderflow import (
    EventKind,
    OrderEvent,
    ParseError,
    ParseResult,
    SessionPhase,
    Side,
    iter_parse,
    parse_stream,
    phase_of,
    serialize_events,
    split_days,
)
from .lob import (
    ApplyOutcome,
    CancelExceedsRemaining,
    CancelSideMismatch,
    CancellationRecord,
    CrossedBookInvariantViolation,
    DanglingCancel,
    LimitOrderBook,
    RestingOrder,
    Trade,
)
from .profiles import (
    AggressivenessClass,
    BinSpec,
    CancelObservation,
    DayReplay,
    EmpiricalPdf,
    InstrumentProfile,
    ProfileRun,
    accumulate_pdf,
    classify_submission,
    profile_events,
    ratio_report,
    replay_day,
    replay_days,
)
from .synth import (
    ExpProfileLaw,
    GenConfig,
    QueueSimConfig,
    TruncLogNormalLaw,
    UniformLaw,
    generate_stream,
    iter_stream,
    simulate_uniform_queues,
)

__version__ = "0.1.0"

# The fitters need numpy, whose import costs more than the rest of the
# package together; they are loaded on first access (PEP 562), so `gen` and
# library users who never fit do not pay for it.
_DISTFIT_EXPORTS = frozenset({
    "ExpProfileFit",
    "GammaFit",
    "LogNormalFit",
    "PowerLawFit",
    "exp_profile_norm",
    "exp_profile_pdf",
    "fit_exp_profile",
    "fit_gamma_lsq",
    "fit_lognormal_lsq",
    "fit_powerlaw_tail",
    "gof_pvalue_mc",
    "lognormal_unit_mass",
    "sample_exp_profile",
    "sample_pareto",
    "sample_trunc_lognormal",
    "trunc_lognormal_pdf",
})


def __getattr__(name: str):
    if name in _DISTFIT_EXPORTS:
        from . import distfit

        return getattr(distfit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
