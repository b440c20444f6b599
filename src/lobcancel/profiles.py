"""Cancellation position profiles, order classification, and ratio statistics.

Replays an instrument-day's events through the book, tags every submission
with an aggressiveness class, and collects three per-side cancellation
coordinates: the relative price level on (0, 1], the normalized level on the
positive reals (book-shape effect divided out), and the relative queue
position on (0, 1]. Binned densities and per-class cancellation ratios are
built from the accumulated counts.

Only events stamped inside the continuous sessions feed the statistics.
Opening-call and cool-period events are held and flushed into the book, in
arrival order, when the first continuous-session event arrives; they are
tallied in diagnostics but excluded from profiles and ratios.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .lob import (
    CancelExceedsRemaining,
    CancelSideMismatch,
    CancellationRecord,
    DanglingCancel,
    DuplicateOrderId,
    LimitOrderBook,
    Trade,
    gc_paused,
)
from .orderflow import (
    EventKind,
    OrderEvent,
    SessionPhase,
    Side,
    phase_of,
    stream_days,
)


# Reading a member off its Enum class (Side.BUY) runs EnumType's Python-level
# attribute hook on Python 3.11, ~0.15 us a lookup; the per-event paths
# compare against a local or module name instead.
_BUY = Side.BUY


class AggressivenessClass(Enum):
    FULLY_FILLED = "fully_filled"
    PARTIALLY_FILLED = "partially_filled"
    INSIDE_SPREAD = "inside_spread"
    AT_BEST = "at_best"
    INSIDE_BOOK = "inside_book"

    # Members are singletons compared by identity, so identity hashing agrees
    # with equality; Enum's own __hash__ runs in Python, twice per Counter
    # increment of the per-class order counts.
    __hash__ = object.__hash__


# Classes that can hold resting quantity, in reporting order (r1..r4).
CANCELLABLE_CLASSES = (
    AggressivenessClass.PARTIALLY_FILLED,
    AggressivenessClass.INSIDE_SPREAD,
    AggressivenessClass.AT_BEST,
    AggressivenessClass.INSIDE_BOOK,
)


def classify_submission(
    side: Side,
    price_ticks: int,
    pre_best_bid: int | None,
    pre_best_ask: int | None,
    traded_on_arrival: bool,
    rested: bool,
) -> AggressivenessClass:
    """Aggressiveness class of a submission, fixed at arrival.

    Orders that trade immediately are FULLY_FILLED (nothing rested) or
    PARTIALLY_FILLED (a remainder rested). Orders that rest untouched are
    classed by their price against the pre-arrival book: strictly between the
    quotes, equal to the same-side best, or behind it. With an empty same-side
    book a non-crossing order counts as INSIDE_SPREAD when an opposite best
    exists, INSIDE_BOOK when the whole book is empty.
    """
    if traded_on_arrival:
        return (
            AggressivenessClass.PARTIALLY_FILLED if rested else AggressivenessClass.FULLY_FILLED
        )
    buy = side is _BUY
    same_best = pre_best_bid if buy else pre_best_ask
    opp_best = pre_best_ask if buy else pre_best_bid
    if same_best is None:
        if opp_best is None:
            return AggressivenessClass.INSIDE_BOOK
        return AggressivenessClass.INSIDE_SPREAD
    if price_ticks == same_best:
        return AggressivenessClass.AT_BEST
    better = price_ticks > same_best if buy else price_ticks < same_best
    return AggressivenessClass.INSIDE_SPREAD if better else AggressivenessClass.INSIDE_BOOK


# -- replay -------------------------------------------------------------------


@dataclass(slots=True)
class OrderLifecycle:
    """What the accounting needs of a resting order."""

    klass: AggressivenessClass
    in_scope: bool               # submitted during a continuous session
    cancelled_in_scope: bool = False


class CancelObservation(NamedTuple):
    """One successful cancellation with its stream context (an immutable tuple)."""

    instrument: str
    seq: int
    timestamp: datetime
    phase: SessionPhase
    record: CancellationRecord
    order_class: AggressivenessClass
    in_profile: bool   # counts toward the position densities
    in_ratio: bool     # counts toward C / r / per-class ratios


@dataclass
class SideAccumulator:
    """Per-side counts; merge is associative.

    The relative level and queue position of a cancel are ratios k/n of
    book counts, so they are kept exactly, as counts per (k, n) pair, and
    binned only when a density is built. The normalized level has no such
    small lattice and is kept as one float per cancel.
    """

    side: Side
    rel_level_counts: Counter = field(default_factory=Counter)   # (level_rank, side_levels)
    queue_frac_counts: Counter = field(default_factory=Counter)  # (queue_rank, level_orders)
    norm_levels: array = field(default_factory=lambda: array("d"))
    orders_by_class: Counter = field(default_factory=Counter)
    cancelled_by_class: Counter = field(default_factory=Counter)
    orders_total: int = 0
    cancelled_orders: int = 0
    cancel_events: int = 0

    def merge(self, other: "SideAccumulator") -> None:
        self.rel_level_counts.update(other.rel_level_counts)
        self.queue_frac_counts.update(other.queue_frac_counts)
        self.norm_levels.extend(other.norm_levels)
        self.orders_by_class.update(other.orders_by_class)
        self.cancelled_by_class.update(other.cancelled_by_class)
        self.orders_total += other.orders_total
        self.cancelled_orders += other.cancelled_orders
        self.cancel_events += other.cancel_events


@dataclass
class DayResult:
    instrument: str
    book: LimitOrderBook
    lifecycles: dict[int, OrderLifecycle]   # orders still resting at the end
    observations: list[CancelObservation]
    diagnostics: Counter
    buy: SideAccumulator
    sell: SideAccumulator
    trades: list[Trade] | None = None


@gc_paused()
def replay_day(
    events: Iterable[OrderEvent], *, collect_trades: bool = False
) -> DayResult:
    """Replay one instrument-day (events in stream order) through a fresh book.

    ``events`` is read once, front to back, so a draining iterator frees each
    event once it has been applied. Counts go into the day's per-side
    accumulators as the events are applied: a submission in a continuous
    session counts toward its class, a cancel toward the densities and
    ratios; only orders still resting keep a lifecycle. Runs with the cyclic
    garbage collector paused (see ``lob.gc_paused``).
    """
    book = LimitOrderBook()
    lifecycles: dict[int, OrderLifecycle] = {}
    observations: list[CancelObservation] = []
    diagnostics: Counter = Counter()
    buy_acc, sell_acc = SideAccumulator(Side.BUY), SideAccumulator(Side.SELL)
    trades: list[Trade] | None = [] if collect_trades else None
    instrument = ""

    held: list[OrderEvent] = []
    flushed = False

    # Members bound once, and identity tests against the members of
    # orderflow.CONTINUOUS_PHASES and HELD_PHASES: set membership would hash
    # the phase through Enum.__hash__, which runs in Python.
    am, pm = SessionPhase.CONTINUOUS_AM, SessionPhase.CONTINUOUS_PM
    call, cool = SessionPhase.OPENING_CALL, SessionPhase.COOL
    cancel = EventKind.CANCEL
    resting = book.index

    def apply_one(ev: OrderEvent, phase: SessionPhase) -> None:
        continuous = phase is am or phase is pm
        if ev.kind is cancel:
            try:
                outcome = book.apply(ev)
            except DanglingCancel:
                diagnostics["dangling_cancels"] += 1
                return
            except CancelSideMismatch:
                diagnostics["cancel_side_mismatch"] += 1
                return
            except CancelExceedsRemaining:
                diagnostics["cancel_exceeds_remaining"] += 1
                return
            rec = outcome.cancellation
            order_id = ev.order_id
            life = lifecycles[order_id] if order_id in resting else lifecycles.pop(order_id)
            acc = buy_acc if rec.side is _BUY else sell_acc
            in_ratio = continuous and life.in_scope
            if in_ratio:
                acc.cancel_events += 1
                if not life.cancelled_in_scope:
                    life.cancelled_in_scope = True
                    acc.cancelled_orders += 1
                    acc.cancelled_by_class[life.klass] += 1
            elif not continuous:
                diagnostics["cancels_outside_continuous"] += 1
            else:
                diagnostics["cancels_of_precontinuous_orders"] += 1
            if continuous:
                _, _, level_rank, side_levels, level_orders, _, queue_rank, _ = rec
                acc.rel_level_counts[level_rank, side_levels] += 1
                acc.queue_frac_counts[queue_rank, level_orders] += 1
                acc.norm_levels.append(rec.norm_level)
            observations.append(
                CancelObservation(
                    ev.instrument, ev.seq, ev.timestamp, phase, rec,
                    life.klass, continuous, in_ratio,
                )
            )
        else:
            pre_bid = book.best_bid()
            pre_ask = book.best_ask()
            try:
                outcome = book.apply(ev)
            except DuplicateOrderId:
                diagnostics["duplicate_order_ids"] += 1
                return
            fills = outcome.trades
            if fills:
                if trades is not None:
                    trades.extend(fills)
                for fill in fills:  # makers filled in full leave the book
                    if fill.maker_id not in resting:
                        lifecycles.pop(fill.maker_id, None)
            rested = outcome.rested is not None
            klass = classify_submission(
                ev.side, ev.price_ticks, pre_bid, pre_ask, bool(fills), rested
            )
            if continuous:
                acc = buy_acc if ev.side is _BUY else sell_acc
                acc.orders_total += 1
                acc.orders_by_class[klass] += 1
            if rested:
                lifecycles[ev.order_id] = OrderLifecycle(klass, continuous)

    for ev in events:
        if not instrument:
            instrument = ev.instrument
        phase = phase_of(ev.timestamp)
        if not flushed:
            if phase is call or phase is cool:
                held.append(ev)
                diagnostics["held_events"] += 1
                continue
            for held_ev in held:
                apply_one(held_ev, phase_of(held_ev.timestamp))
            held.clear()
            flushed = True
        apply_one(ev, phase)
    for held_ev in held:  # no continuous event ever arrived
        apply_one(held_ev, phase_of(held_ev.timestamp))

    return DayResult(
        instrument, book, lifecycles, observations, diagnostics, buy_acc, sell_acc, trades
    )


# -- accumulation ---------------------------------------------------------------


@dataclass
class InstrumentProfile:
    instrument: str
    buy: SideAccumulator = field(default_factory=lambda: SideAccumulator(Side.BUY))
    sell: SideAccumulator = field(default_factory=lambda: SideAccumulator(Side.SELL))
    diagnostics: Counter = field(default_factory=Counter)
    days: int = 0

    def add_day(self, day: DayResult) -> None:
        self.days += 1
        self.diagnostics.update(day.diagnostics)
        self.buy.merge(day.buy)
        self.sell.merge(day.sell)

    def merge(self, other: "InstrumentProfile") -> None:
        self.buy.merge(other.buy)
        self.sell.merge(other.sell)
        self.diagnostics.update(other.diagnostics)
        self.days += other.days


@dataclass
class ProfileRun:
    per_instrument: dict[str, InstrumentProfile]

    def ensemble(self) -> InstrumentProfile:
        """Pooled accumulator over all instruments (raw-sample weighting)."""
        pooled = InstrumentProfile("__ensemble__")
        for code in sorted(self.per_instrument):
            pooled.merge(self.per_instrument[code])
        return pooled


def profile_events(events: Iterable[OrderEvent]) -> ProfileRun:
    """Replay every instrument-day in (instrument, day) order and pool the results."""
    per_instrument: dict[str, InstrumentProfile] = {}
    for day_events in stream_days(events):
        day = replay_day(day_events)
        profile = per_instrument.get(day.instrument)
        if profile is None:
            profile = per_instrument[day.instrument] = InstrumentProfile(day.instrument)
        profile.add_day(day)
    return ProfileRun(per_instrument)


# -- ratio report ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassRatio:
    orders: int
    cancelled: int

    @property
    def ratio(self) -> float | None:
        return self.cancelled / self.orders if self.orders else None


@dataclass(frozen=True)
class SideRatios:
    orders: int
    cancelled_orders: int
    cancel_events: int
    by_class: dict[AggressivenessClass, ClassRatio]

    @property
    def ratio(self) -> float | None:
        return self.cancelled_orders / self.orders if self.orders else None


def ratio_report(acc: SideAccumulator) -> SideRatios:
    """Cancellation ratios for one side: overall and per cancellable class.

    The overall denominator counts every effective submission in scope (all
    of them either rest or trade on arrival); class denominators restrict to
    the class. Fully filled orders appear only in the overall denominator:
    they hold no resting quantity, so they cannot be cancelled.
    """
    by_class = {
        klass: ClassRatio(acc.orders_by_class[klass], acc.cancelled_by_class[klass])
        for klass in CANCELLABLE_CLASSES
    }
    return SideRatios(
        orders=acc.orders_total,
        cancelled_orders=acc.cancelled_orders,
        cancel_events=acc.cancel_events,
        by_class=by_class,
    )


# -- empirical densities ----------------------------------------------------------


class PdfError(ValueError):
    pass


class EmptySample(PdfError):
    pass


class SampleOutsideDomain(PdfError):
    pass


UNIT_INTERVAL = "unit_interval"
POSITIVE_RAY = "positive_ray"

DEFAULT_UNIT_BINS = 50
DEFAULT_LOG_BINS = 60


@dataclass(frozen=True)
class BinSpec:
    """Histogram layout: k uniform bins on (0, 1] or k log-uniform bins."""

    kind: str  # "uniform" | "log_uniform"
    bins: int
    lo: float | None = None  # log_uniform only; defaults to sample min
    hi: float | None = None  # log_uniform only; defaults to sample max

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "log_uniform"):
            raise ValueError(f"unknown bin spec kind {self.kind!r}")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


UNIT_BIN_SPEC = BinSpec("uniform", DEFAULT_UNIT_BINS)
LOG_BIN_SPEC = BinSpec("log_uniform", DEFAULT_LOG_BINS)


@dataclass(frozen=True)
class EmpiricalPdf:
    """Binned density; integrates to one over its bins by construction."""

    bin_edges: np.ndarray
    density: np.ndarray
    count: int
    domain: str

    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def centers(self) -> np.ndarray:
        edges = self.bin_edges
        if self.domain == POSITIVE_RAY:
            return np.sqrt(edges[:-1] * edges[1:])
        return 0.5 * (edges[:-1] + edges[1:])

    def integral(self) -> float:
        return float(np.sum(self.density * self.widths()))

    def nonempty_bins(self) -> int:
        return int(np.count_nonzero(self.density))

    def to_dict(self) -> dict:
        return {
            "edges": [float(e) for e in self.bin_edges],
            "density": [float(d) for d in self.density],
            "count": self.count,
            "domain": self.domain,
        }


def pdf_from_edges(
    samples: np.ndarray, edges: np.ndarray, domain: str, weights: np.ndarray | None = None
) -> EmpiricalPdf:
    counts, _ = np.histogram(samples, bins=edges, weights=weights)
    n = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (n * widths) if n else np.zeros_like(widths)
    return EmpiricalPdf(np.asarray(edges, float), density, n, domain)


def accumulate_pdf(samples, spec: BinSpec, weights=None) -> EmpiricalPdf:
    """Bin samples into a normalized density per the given spec.

    ``weights``, when given, holds a positive integer count per sample: the
    density is that of each sample repeated so many times. Raises EmptySample
    on no data and SampleOutsideDomain when a sample falls outside (0, 1]
    for uniform bins or outside the positive reals (or an explicit [lo, hi])
    for log-uniform bins.
    """
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise EmptySample("no samples to bin")
    if spec.kind == "uniform":
        if np.any(xs <= 0.0) or np.any(xs > 1.0):
            raise SampleOutsideDomain("samples must lie in (0, 1]")
        edges = np.linspace(0.0, 1.0, spec.bins + 1)
        return pdf_from_edges(xs, edges, UNIT_INTERVAL, weights)
    if np.any(xs <= 0.0):
        raise SampleOutsideDomain("samples must be positive")
    lo = spec.lo if spec.lo is not None else float(xs.min())
    hi = spec.hi if spec.hi is not None else float(xs.max())
    if lo <= 0.0:
        raise SampleOutsideDomain("log-uniform bins need a positive lower edge")
    if not hi > lo:
        raise PdfError("degenerate bin range: all samples identical")
    if np.any(xs < lo) or np.any(xs > hi):
        raise SampleOutsideDomain(f"samples outside [{lo}, {hi}]")
    edges = np.geomspace(lo, hi, spec.bins + 1)
    edges[0] = lo
    edges[-1] = hi
    return pdf_from_edges(xs, edges, POSITIVE_RAY, weights)


def count_pdf(counts: dict[tuple[int, int], int], spec: BinSpec) -> EmpiricalPdf:
    """Density of the ratios k/n of a (k, n) count table, each weighted by its count.

    Equal to ``accumulate_pdf`` of every ratio repeated by its count: the
    ratios are the same floats, and a weighted histogram bins each one by
    the same comparisons with the edges.
    """
    return accumulate_pdf([k / n for k, n in counts], spec, list(counts.values()))
