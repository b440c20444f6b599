"""Cancellation position profiles, order classification, and ratio statistics.

Replays an instrument-day's events through the book, tags every submission
with an aggressiveness class, and collects three per-side cancellation
coordinates: the relative price level on (0, 1], the normalized level on the
positive reals (book-shape effect divided out), and the relative queue
position on (0, 1]. Binned densities and per-class cancellation ratios are
built from the accumulated counts.

Only events stamped inside the continuous sessions feed the statistics.
Every event is applied to the book as it arrives, in the phase of its own
stamp, so opening-call and cool-period orders shape the book the continuous
session opens on but never count in the profiles or the ratios. The call and
cool events before a day's first event of another phase are tallied as
``held_events`` in the diagnostics.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, time
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .lob import (
    CancelExceedsRemaining,
    CancelSideMismatch,
    CancellationRecord,
    DanglingCancel,
    DuplicateOrderId,
    LimitOrderBook,
    gc_paused,
)
from .orderflow import (
    _PHASE_BOUNDS,
    _PHASES,
    DaysOutOfOrder,
    EventKind,
    OrderEvent,
    SessionPhase,
    Side,
)

if TYPE_CHECKING:
    import numpy as np


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


# The members, bound once for classify_submission (see _BUY).
_FULLY_FILLED = AggressivenessClass.FULLY_FILLED
_PARTIALLY_FILLED = AggressivenessClass.PARTIALLY_FILLED
_INSIDE_SPREAD = AggressivenessClass.INSIDE_SPREAD
_AT_BEST = AggressivenessClass.AT_BEST
_INSIDE_BOOK = AggressivenessClass.INSIDE_BOOK

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
        return _PARTIALLY_FILLED if rested else _FULLY_FILLED
    buy = side is _BUY
    same_best = pre_best_bid if buy else pre_best_ask
    opp_best = pre_best_ask if buy else pre_best_bid
    if same_best is None:
        return _INSIDE_BOOK if opp_best is None else _INSIDE_SPREAD
    if price_ticks == same_best:
        return _AT_BEST
    better = price_ticks > same_best if buy else price_ticks < same_best
    return _INSIDE_SPREAD if better else _INSIDE_BOOK


# -- replay -------------------------------------------------------------------


@dataclass(slots=True)
class OrderLifecycle:
    """What the accounting knows of a resting order. The replay keeps the three
    fields, in order, as a list in its ``RestingOrder.tag``, which costs less."""

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
    book counts, so they are kept exactly, as one row of counts per
    denominator, ``{n: {k: count}}``, and binned only when a density is
    built. The normalized level has no such small lattice and is kept as
    one float per cancel.
    """

    rel_level_counts: dict = field(default_factory=dict)   # side_levels -> {level_rank: count}
    queue_frac_counts: dict = field(default_factory=dict)  # level_orders -> {queue_rank: count}
    norm_levels: array = field(default_factory=lambda: array("d"))
    orders_by_class: Counter = field(default_factory=Counter)
    cancelled_by_class: Counter = field(default_factory=Counter)
    cancel_events: int = 0

    @property
    def orders_total(self) -> int:
        return self.orders_by_class.total()

    @property
    def cancelled_orders(self) -> int:
        return self.cancelled_by_class.total()

    def merge(self, other: "SideAccumulator") -> None:
        for table, rows in ((self.rel_level_counts, other.rel_level_counts),
                            (self.queue_frac_counts, other.queue_frac_counts)):
            for n, row in rows.items():
                into = table.get(n)
                if into is None:
                    table[n] = row.copy()
                else:
                    for k, count in row.items():
                        into[k] = into.get(k, 0) + count
        self.norm_levels.extend(other.norm_levels)
        self.orders_by_class.update(other.orders_by_class)
        self.cancelled_by_class.update(other.cancelled_by_class)
        self.cancel_events += other.cancel_events


@dataclass
class DayResult:
    instrument: str
    book: LimitOrderBook
    observations: list[CancelObservation]
    diagnostics: Counter
    buy: SideAccumulator
    sell: SideAccumulator
    events: int  # events fed to the day's replay

    @property
    def lifecycles(self) -> dict[int, OrderLifecycle]:
        """Lifecycle of each order still resting at the end, by order id."""
        return {order_id: OrderLifecycle(*order.tag) for order_id, order in self.book.index.items()}


class DayReplay:
    """One instrument-day replayed through a fresh book as its events arrive.

    ``feed(ev)`` applies each event in stream order and ``finish()`` returns
    the day's DayResult. Counts go into the day's per-side accumulators as
    the events are applied: a submission in a continuous session counts
    toward its class, a cancel toward the densities and ratios; an order's
    lifecycle is its resting order's ``tag``. Each event is applied in the
    phase of its own stamp; ``held_events`` counts the opening-call and
    cool-period events before the day's first event of another phase.

    With ``flush``, every ``chunk`` cancel observations are passed to
    ``flush`` and dropped, and ``finish()`` passes the rest, so the result
    holds none. The replay keeps the book and the counts, not the day's
    events; a caller that wants the collector paused while it feeds (see
    ``lob.gc_paused``) pauses it itself.
    """

    __slots__ = ("feed", "finish")

    def __init__(
        self, flush: Callable[[list[CancelObservation]], object] | None = None, chunk: int = 0
    ):
        book = LimitOrderBook()
        observations: list[CancelObservation] = []
        diagnostics: Counter = Counter()
        buy_acc, sell_acc = SideAccumulator(), SideAccumulator()
        instrument = ""
        events = 0
        holding = True  # until the first event that is neither opening call nor cool
        if flush is None:
            chunk = 0  # len(observations) is never 0 after an append

        # Members bound once, and identity tests against the members of
        # orderflow.CONTINUOUS_PHASES and the opening-call and cool phases:
        # set membership would hash the phase through Enum.__hash__, which
        # runs in Python.
        am, pm = SessionPhase.CONTINUOUS_AM, SessionPhase.CONTINUOUS_PM
        call, cool = SessionPhase.OPENING_CALL, SessionPhase.COOL
        cancel = EventKind.CANCEL
        resting = book.index
        submit, cancel_order = book.submit, book.cancel
        buy_keys, sell_keys = book.buy.keys, book.sell.keys
        new = tuple.__new__  # a NamedTuple's own __new__ runs in Python
        # The phase of the last event and the times of day it spans, [lo, hi);
        # an event outside them is bisected into orderflow.phase_of's bounds.
        edges = (time.min, *_PHASE_BOUNDS, time.max)
        phase, lo, hi = None, time.max, time.min

        # No closure here refers to itself or to one that refers back to it:
        # such a cycle would keep each finished day alive while the
        # collector is paused.
        def feed(ev: OrderEvent) -> None:
            nonlocal instrument, events, phase, lo, hi, holding
            events += 1
            tod = ev.timestamp.time()
            if not lo <= tod < hi:
                i = bisect_right(_PHASE_BOUNDS, tod)
                phase, lo, hi = _PHASES[i], edges[i], edges[i + 1]
            if holding:
                if not instrument:
                    instrument = ev.instrument
                if phase is call or phase is cool:
                    diagnostics["held_events"] += 1
                else:
                    holding = False
            continuous = phase is am or phase is pm
            if ev.kind is cancel:
                order = resting.get(ev.order_id)  # a full cancel takes it out of the index
                try:
                    rec = cancel_order(ev)
                except DanglingCancel:
                    diagnostics["dangling_cancels"] += 1
                    return
                except CancelSideMismatch:
                    diagnostics["cancel_side_mismatch"] += 1
                    return
                except CancelExceedsRemaining:
                    diagnostics["cancel_exceeds_remaining"] += 1
                    return
                price = ev.price_ticks
                if price and price != order.price_ticks:  # the order id decides: still applied
                    diagnostics["cancel_price_mismatch"] += 1
                life = order.tag  # [klass, in_scope, cancelled_in_scope]
                _, side, level_rank, side_levels, level_orders, side_orders, queue_rank, _ = rec
                acc = buy_acc if side is _BUY else sell_acc
                in_ratio = continuous and life[1]
                if in_ratio:
                    acc.cancel_events += 1
                    if not life[2]:
                        life[2] = True
                        counts, key = acc.cancelled_by_class, life[0]
                        counts[key] = counts.get(key, 0) + 1
                elif not continuous:
                    diagnostics["cancels_outside_continuous"] += 1
                else:
                    diagnostics["cancels_of_precontinuous_orders"] += 1
                if continuous:
                    row = acc.rel_level_counts.get(side_levels)
                    if row is None:
                        row = acc.rel_level_counts[side_levels] = {}
                    row[level_rank] = row.get(level_rank, 0) + 1
                    row = acc.queue_frac_counts.get(level_orders)
                    if row is None:
                        row = acc.queue_frac_counts[level_orders] = {}
                    row[queue_rank] = row.get(queue_rank, 0) + 1
                    # lob.norm_level, inline: the same expression, so the same bits
                    acc.norm_levels.append((level_rank * side_orders) / (side_levels * level_orders))
                observations.append(new(CancelObservation, (
                    ev.instrument, ev.seq, ev.timestamp, phase, rec, life[0], continuous, in_ratio
                )))
                if len(observations) == chunk:
                    flush(observations)
                    observations.clear()
            else:
                # The quotes before the order arrives; buy keys are negated prices.
                pre_bid = -buy_keys[0] if buy_keys else None
                pre_ask = sell_keys[0] if sell_keys else None
                try:
                    trades, order = submit(ev)
                except DuplicateOrderId:
                    diagnostics["duplicate_order_ids"] += 1
                    return
                klass = classify_submission(
                    ev.side, ev.price_ticks, pre_bid, pre_ask, bool(trades), order is not None
                )
                if continuous:
                    counts = (buy_acc if ev.side is _BUY else sell_acc).orders_by_class
                    counts[klass] = counts.get(klass, 0) + 1
                if order is not None:
                    order.tag = [klass, continuous, False]

        def finish() -> DayResult:
            if flush is not None:
                flush(observations)
                observations.clear()
            return DayResult(instrument, book, observations, diagnostics, buy_acc, sell_acc,
                             events)

        self.feed = feed
        self.finish = finish


@gc_paused()
def replay_day(events: Iterable[OrderEvent]) -> DayResult:
    """Replay one instrument-day (events in stream order) through a fresh book.

    ``events`` is read once, front to back, through a DayReplay, with the
    cyclic garbage collector paused (see ``lob.gc_paused``).
    """
    replay = DayReplay()
    feed = replay.feed
    for ev in events:
        feed(ev)
    return replay.finish()


def replay_days(
    events: Iterable[OrderEvent],
    *,
    in_date_order: bool = False,
    open_day: Callable[[str, date], DayReplay] = lambda instrument, day: DayReplay(),
) -> Iterator[DayResult]:
    """Feed each event to its instrument-day's live replay; yield each finished day.

    ``open_day(instrument, day)`` makes the replay of a day when its first
    event arrives. By default every day stays live to the end of the stream,
    and the days are finished in (instrument, day) order. With
    ``in_date_order`` an instrument's day is finished as soon as a later date
    of that instrument arrives, so one day per instrument is live; an
    earlier date raises DaysOutOfOrder, and the days still live at the end
    are finished in (instrument, day) order.
    """
    live: dict[tuple[str, date], DayReplay] = {}
    current_day: dict[str, date] = {}
    instrument = day = feed = None  # the last event's instrument-day and its replay's feed
    for ev in events:
        # The parser interns instrument codes, so an identity test settles
        # the code for a stream it made; an equal code of another object
        # only costs the lookup below.
        ev_day = ev.timestamp.date()
        if ev.instrument is not instrument or ev_day != day:
            instrument, day = key = ev.instrument, ev_day
            replay = live.get(key)
            if replay is None:
                if in_date_order:
                    prev_day = current_day.get(instrument)
                    if prev_day is not None:
                        if day < prev_day:
                            raise DaysOutOfOrder(
                                f"{instrument} goes back from {prev_day} to {day}"
                            )
                        yield live.pop((instrument, prev_day)).finish()
                    current_day[instrument] = day
                replay = live[key] = open_day(instrument, day)
            feed = replay.feed
        feed(ev)
    for key in sorted(live):
        yield live.pop(key).finish()


# -- accumulation ---------------------------------------------------------------


@dataclass
class InstrumentProfile:
    instrument: str
    buy: SideAccumulator = field(default_factory=SideAccumulator)
    sell: SideAccumulator = field(default_factory=SideAccumulator)
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
    per_instrument: dict[str, InstrumentProfile] = field(default_factory=dict)

    def add_day(self, day: DayResult) -> None:
        """Count a replayed day into its instrument's profile."""
        profile = self.per_instrument.get(day.instrument)
        if profile is None:
            profile = self.per_instrument[day.instrument] = InstrumentProfile(day.instrument)
        profile.add_day(day)

    def ensemble(self) -> InstrumentProfile:
        """Pooled accumulator over all instruments (raw-sample weighting).

        It copies every instrument's tables and samples. ``profiles.json``'s
        ensemble block is not built from it: ``reportio.profiles_payload``
        sums the instruments' bin counts, which renders the same.
        """
        pooled = InstrumentProfile("__ensemble__")
        for code in sorted(self.per_instrument):
            pooled.merge(self.per_instrument[code])
        return pooled


@gc_paused()
def profile_events(events: Iterable[OrderEvent]) -> ProfileRun:
    """Replay every instrument-day (see ``replay_days``) and pool the results."""
    run = ProfileRun()
    for day in replay_days(events):
        run.add_day(day)
    return run


# -- ratio report ----------------------------------------------------------------


def ratio_report(acc: SideAccumulator) -> dict:
    """Cancellation ratios for one side: overall and per cancellable class.

    The overall denominator counts every effective submission in scope (all
    of them either rest or trade on arrival); class denominators restrict to
    the class. Fully filled orders appear only in the overall denominator:
    they hold no resting quantity, so they cannot be cancelled. The result is
    the side's profiles.json block without its densities; a ratio is None
    where there are no orders.
    """
    class_ratios = {}
    for klass in CANCELLABLE_CLASSES:
        n, c = acc.orders_by_class[klass], acc.cancelled_by_class[klass]
        class_ratios[klass.value] = {"orders": n, "cancelled": c, "ratio": c / n if n else None}
    n, c = acc.orders_total, acc.cancelled_orders
    return {
        "orders": n,
        "cancelled_orders": c,
        "cancel_events": acc.cancel_events,
        "ratio": c / n if n else None,
        "fully_filled_orders": acc.orders_by_class[AggressivenessClass.FULLY_FILLED],
        "class_ratios": class_ratios,
    }


# -- empirical densities ----------------------------------------------------------

# numpy is imported inside the functions that build a density, not at the
# top: its import is about half of the CLI's start-up, and `gen`, `validate`
# and `report` never build one. EmpiricalPdf measures its arrays with their
# own operators.


class PdfError(ValueError):
    pass


class EmptySample(PdfError):
    pass


class SampleOutsideDomain(PdfError):
    pass


UNIT_INTERVAL = "unit_interval"
POSITIVE_RAY = "positive_ray"

DEFAULT_UNIT_BINS = 50


@dataclass(frozen=True)
class BinSpec:
    """Histogram layout: k uniform bins on (0, 1] or k log-uniform bins
    spanning the samples."""

    kind: str  # "uniform" | "log_uniform"
    bins: int

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "log_uniform"):
            raise ValueError(f"unknown bin spec kind {self.kind!r}")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


UNIT_BIN_SPEC = BinSpec("uniform", DEFAULT_UNIT_BINS)


@dataclass(frozen=True)
class EmpiricalPdf:
    """Binned density; integrates to one over its bins by construction."""

    bin_edges: np.ndarray
    density: np.ndarray
    count: int
    domain: str

    def widths(self) -> np.ndarray:
        edges = self.bin_edges
        return edges[1:] - edges[:-1]

    def centers(self) -> np.ndarray:
        edges = self.bin_edges
        if self.domain == POSITIVE_RAY:
            return (edges[:-1] * edges[1:]) ** 0.5
        return 0.5 * (edges[:-1] + edges[1:])

    def integral(self) -> float:
        return float((self.density * self.widths()).sum())

    def nonempty_bins(self) -> int:
        return int((self.density != 0).sum())

    def to_dict(self) -> dict:
        return {
            "edges": self.bin_edges.tolist(),
            "density": self.density.tolist(),
            "count": self.count,
            "domain": self.domain,
        }


def pdf_from_counts(counts: np.ndarray, edges: np.ndarray, domain: str) -> EmpiricalPdf:
    """Density of the bin ``counts`` over ``edges``; all zeros when they sum to 0."""
    import numpy as np

    n = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (n * widths) if n else np.zeros_like(widths)
    return EmpiricalPdf(np.asarray(edges, float), density, n, domain)


def accumulate_pdf(samples, spec: BinSpec, weights=None) -> EmpiricalPdf:
    """Bin samples into a normalized density per the given spec.

    ``weights``, when given, holds a positive integer count per sample: the
    density is that of each sample repeated so many times. Raises EmptySample
    on no data and SampleOutsideDomain when a sample falls outside (0, 1]
    for uniform bins or outside the positive reals for log-uniform bins.
    """
    pdf = pooled_pdfs([(samples, weights)], spec)[-1]
    if isinstance(pdf, PdfError):
        raise pdf
    return pdf


def table_ratios(counts: dict[int, dict[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The ratios k/n of a count table ``{n: {k: count}}`` and their counts,
    as a float64 and an int64 array, in row order.

    The table is read into int64 arrays in one pass and divided at once, so
    no Python float is built per (k, n) pair. Each ratio is Python's
    ``k / n``: book counts, far below 2**53, convert to float64 exactly, and
    one IEEE division rounds them alike.
    """
    import numpy as np

    if 0 in counts:
        raise ZeroDivisionError("a count table row has n = 0")
    rows = counts.values()
    sizes = np.fromiter(map(len, rows), np.intp, len(counts))
    pairs = int(sizes.sum())
    ks = np.fromiter(chain.from_iterable(rows), np.int64, pairs)
    weights = np.fromiter(chain.from_iterable(row.values() for row in rows), np.int64, pairs)
    ns = np.repeat(np.fromiter(counts, np.int64, len(counts)), sizes)
    return ks / ns, weights


def count_pdf(counts: dict[int, dict[int, int]], spec: BinSpec) -> EmpiricalPdf:
    """Density of the ratios k/n of a count table ``{n: {k: count}}``, each
    weighted by its count.

    Equal to ``accumulate_pdf`` of every ratio repeated by its count: the
    ratios are the same floats (see ``table_ratios``), and a weighted
    histogram bins each one by the same comparisons with the edges.
    """
    ratios, weights = table_ratios(counts)
    return accumulate_pdf(ratios, spec, weights)


def pooled_pdfs(parts: Iterable, spec: BinSpec) -> list:
    """The density of each part of ``parts``, then that of all of them pooled,
    each an EmpiricalPdf or the PdfError that stopped it.

    A part is a ``(samples, weights)`` pair as ``accumulate_pdf`` takes them,
    and the pool's density is ``accumulate_pdf`` of the parts' samples
    concatenated, with no concatenated copy: the pool adds the parts' int64
    bin counts, and ``np.histogram`` bins each sample on its own, so the
    sums are the counts of the concatenation. Uniform bins are the same for
    every part, and each part's counts are taken once, in one pass over
    ``parts``. Log-uniform bins span a part's own min and max, and the pool's
    span the pooled min and max, on which a part is binned again unless its
    own span is the pool's. The pool has no density when no part has a
    sample, or when a part has a sample outside the domain.
    """
    import numpy as np

    uniform = spec.kind == "uniform"
    domain = UNIT_INTERVAL if uniform else POSITIVE_RAY
    unit_edges = np.linspace(0.0, 1.0, spec.bins + 1) if uniform else None
    pdfs, binned = [], []  # binned: each part's (samples, weights, span, counts)
    total = np.zeros(spec.bins, np.int64)
    pool_error = None
    sampled = False
    for samples, weights in parts:
        if weights is not None:
            weights = np.asarray(weights, dtype=np.int64)
        xs = np.asarray(samples, dtype=float)  # a view of an array('d'): no copy
        if xs.size == 0:
            pdfs.append(EmptySample("no samples to bin"))
            continue
        sampled = True
        if uniform:
            if np.any(xs <= 0.0) or np.any(xs > 1.0):
                pdfs.append(pool_error := SampleOutsideDomain("samples must lie in (0, 1]"))
                continue
            counts, _ = np.histogram(xs, bins=unit_edges, weights=weights)
            total += counts
            pdfs.append(pdf_from_counts(counts, unit_edges, domain))
            continue
        if np.any(xs <= 0.0):
            pdfs.append(pool_error := SampleOutsideDomain("samples must be positive"))
            continue
        span = float(xs.min()), float(xs.max())
        try:
            edges = _log_edges(*span, spec.bins)
        except PdfError as exc:
            pdfs.append(exc)
            binned.append((xs, weights, span, None))
            continue
        counts, _ = np.histogram(xs, bins=edges, weights=weights)
        pdfs.append(pdf_from_counts(counts, edges, domain))
        binned.append((xs, weights, span, counts))
    if not sampled:
        pool_error = EmptySample("no samples to bin")
    if pool_error is not None:
        return [*pdfs, pool_error]
    if uniform:
        return [*pdfs, pdf_from_counts(total, unit_edges, domain)]
    span = min(lo for _, _, (lo, _), _ in binned), max(hi for _, _, (_, hi), _ in binned)
    try:
        edges = _log_edges(*span, spec.bins)
    except PdfError as exc:
        return [*pdfs, exc]
    for xs, weights, own_span, counts in binned:
        if own_span != span:
            counts, _ = np.histogram(xs, bins=edges, weights=weights)
        total += counts
    return [*pdfs, pdf_from_counts(total, edges, domain)]


def _log_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    """``bins`` log-uniform bins from ``lo`` to ``hi``, with those two ends exactly."""
    import numpy as np

    if not hi > lo:
        raise PdfError("degenerate bin range: all samples identical")
    edges = np.geomspace(lo, hi, bins + 1)
    edges[0] = lo
    edges[-1] = hi
    return edges
