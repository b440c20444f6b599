"""Limit-order-book reconstruction and cancellation position profiling."""

from .orderflow import (
    EventKind,
    OrderEvent,
    ParseError,
    ParseResult,
    SessionPhase,
    Side,
    parse_stream,
    phase_of,
    serialize_events,
    split_days,
)
from .lob import (
    ApplyOutcome,
    CancelExceedsRemaining,
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
    EmpiricalPdf,
    InstrumentProfile,
    ProfileRun,
    accumulate_pdf,
    classify_submission,
    profile_events,
    ratio_report,
    replay_day,
)
from .distfit import (
    ExpProfileFit,
    GammaFit,
    LogNormalFit,
    PowerLawFit,
    exp_profile_norm,
    exp_profile_pdf,
    fit_exp_profile,
    fit_gamma_lsq,
    fit_lognormal_lsq,
    fit_powerlaw_tail,
    gof_pvalue_mc,
    lognormal_unit_mass,
    sample_exp_profile,
    sample_pareto,
    sample_trunc_lognormal,
    trunc_lognormal_pdf,
)
from .synth import (
    ExpProfileLaw,
    GenConfig,
    QueueSimConfig,
    TruncLogNormalLaw,
    UniformLaw,
    generate_stream,
    simulate_uniform_queues,
)

__version__ = "0.1.0"
