"""Order-flow event model and CSV stream parsing.

The canonical wire format is a UTF-8 CSV with header

    seq,timestamp,instrument,order_id,kind,side,price_ticks,size

where kind is one of L (limit), M (marketable), C (cancel), side is B or S,
timestamps are ISO-8601 with millisecond precision, and prices are integer
ticks (one tick = 0.01 CNY for Shenzhen A shares). A cancel with size 0 means
"cancel the full remaining quantity".
"""
from __future__ import annotations

import io
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, time
from enum import Enum
from sys import intern
from typing import Iterable, Iterator, NamedTuple


class Side(Enum):
    BUY = "B"
    SELL = "S"


class EventKind(Enum):
    LIMIT = "L"
    MARKETABLE = "M"
    CANCEL = "C"


class SessionPhase(Enum):
    """Phase of a Shenzhen-style trading day, derived from the timestamp."""

    OPENING_CALL = "opening_call"   # 09:15-09:25, orders collected for the open
    COOL = "cool"                   # 09:25-09:30, orders accepted but not processed
    CONTINUOUS_AM = "continuous_am" # 09:30-11:30
    LUNCH = "lunch"                 # 11:30-13:00
    CONTINUOUS_PM = "continuous_pm" # 13:00-15:00
    CLOSED = "closed"


CONTINUOUS_PHASES = frozenset({SessionPhase.CONTINUOUS_AM, SessionPhase.CONTINUOUS_PM})

# Phase boundaries in time-of-day order; each phase runs half-open from one
# boundary to the next, so bisect_right maps a time of day to its phase.
_PHASE_BOUNDS = (time(9, 15), time(9, 25), time(9, 30), time(11, 30), time(13, 0), time(15, 0))
_PHASES = (
    SessionPhase.CLOSED,
    SessionPhase.OPENING_CALL,
    SessionPhase.COOL,
    SessionPhase.CONTINUOUS_AM,
    SessionPhase.LUNCH,
    SessionPhase.CONTINUOUS_PM,
    SessionPhase.CLOSED,
)

HEADER = "seq,timestamp,instrument,order_id,kind,side,price_ticks,size"
# Timestamp text by value: TWO_DIGITS[7] == "07" and MS_TEXT[7] == ".007".
TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))
MS_TEXT = tuple(f".{ms:03d}" for ms in range(1000))


def phase_of(ts: datetime | time) -> SessionPhase:
    """Map a timestamp to its session phase (total and pure)."""
    tod = ts.time() if isinstance(ts, datetime) else ts
    return _PHASES[bisect_right(_PHASE_BOUNDS, tod)]


class OrderEvent(NamedTuple):
    """One parsed line of the order-flow stream (an immutable tuple)."""

    seq: int
    timestamp: datetime
    instrument: str
    order_id: int
    kind: EventKind
    side: Side
    price_ticks: int
    size: int

    def to_row(self) -> str:
        # Enum members keep their value in the plain attribute _value_;
        # reading it skips the Enum.value descriptor. isoformat's arguments
        # are passed by position, which parses faster than by keyword.
        return (
            f"{self.seq},{self.timestamp.isoformat('T', 'milliseconds')},"
            f"{self.instrument},{self.order_id},{self.kind._value_},{self.side._value_},"
            f"{self.price_ticks},{self.size}"
        )


# Error codes carried by ParseError records.
BAD_HEADER = "bad_header"
MALFORMED_ROW = "malformed_row"
BAD_ENUM = "bad_enum"
BAD_VALUE = "bad_value"
NON_MONOTONE_SEQ = "non_monotone_seq"
NON_MONOTONE_TIME = "non_monotone_time"
MIXED_UTC_OFFSET = "mixed_utc_offset"
DUPLICATE_ORDER_ID = "duplicate_order_id"


class DaysOutOfOrder(Exception):
    """An instrument's trading day went back to an earlier date in a stream
    read in date order (see ``iter_parse`` and ``profiles.replay_days``)."""


@dataclass(frozen=True, slots=True)
class ParseError:
    """A structured per-line parse failure; the offending row is skipped."""

    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.code}: {self.message}"


@dataclass
class ParseResult:
    events: list[OrderEvent] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


# Wire letters to members: a dict lookup costs a fraction of Enum's __call__.
_KINDS = {kind.value: kind for kind in EventKind}
_SIDES = {side.value: side for side in Side}


@dataclass
class DayChecks:
    """The per-instrument-day state of ``iter_parse``'s checks.

    Pass one to the ``iter_parse`` call of each file of an input, and the
    checks treat an instrument-day split across the files as one day.
    """

    # Each live instrument-day's [last timestamp, rising ids, other ids]. The
    # submitted order ids above every earlier id of the day, as a day's ids
    # mostly are, go in ascending order into an array of 8 bytes each,
    # searched by bisection; the others into a set, whose entries cost about
    # 100 bytes each.
    live: dict[tuple[str, date], list] = field(default_factory=dict)
    # In date order: each instrument's day.
    current_day: dict[str, date] = field(default_factory=dict)


def iter_parse(
    source: str | Iterable[str], *, in_date_order: bool = False, days: DayChecks | None = None
) -> Iterator[OrderEvent | ParseError]:
    """Parse an order-flow CSV lazily, yielding an OrderEvent or a ParseError per record.

    ``source`` is the whole text, read as a universal-newline file reads it
    (lines end at ``\n``, ``\r\n`` and ``\r`` only), or an iterable of lines
    such as an open text file; every line is stripped.

    Every bad record yields a ParseError with its line number and is skipped;
    parsing continues. Validation covers the header, column count, field
    types, enum letters, strictly increasing seq, non-decreasing timestamps
    per instrument-day (all naive or all with a UTC offset), unique
    submission ids per instrument-day, and positive size/price for
    submissions. Instrument codes are interned, and equal prices and sizes
    share one int object.

    The checks keep per-instrument-day state in ``days``, a fresh DayChecks
    by default; seq and the header are checked per call. With
    ``in_date_order`` a day's state is dropped once its instrument moves on
    to a later date, so the state stays one day per instrument, and a row
    that takes its instrument back to an earlier date raises DaysOutOfOrder;
    the records yielded up to then are those of the default mode.
    """
    lines = iter(io.StringIO(source, newline=None) if isinstance(source, str) else source)

    header = next(lines, None)
    if header is None or header.strip() != HEADER:
        got = "" if header is None else header.strip()
        yield ParseError(1, BAD_HEADER, f"expected header {HEADER!r}, got {got!r}")
        return

    cancel = EventKind.CANCEL  # bound once: a lookup on the Enum class runs Python code
    new = tuple.__new__  # OrderEvent's own __new__ is a Python function on 3.11
    # A day repeats few prices and sizes, so each distinct value is one shared
    # int object, not a fresh one per buffered event.
    share = {}.setdefault
    last_seq: int | None = None
    days = DayChecks() if days is None else days
    live, current_day = days.live, days.current_day

    for line_no, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            yield ParseError(line_no, MALFORMED_ROW, f"expected 8 columns, got {len(parts)}")
            continue
        s_seq, s_ts, instrument, s_oid, s_kind, s_side, s_price, s_size = parts
        try:
            seq = int(s_seq)
            order_id = int(s_oid)
            price_ticks = int(s_price)
            size = int(s_size)
        except ValueError:
            yield ParseError(line_no, MALFORMED_ROW, "non-integer numeric field")
            continue
        try:
            ts = datetime.fromisoformat(s_ts)
        except ValueError:
            yield ParseError(line_no, MALFORMED_ROW, f"bad timestamp {s_ts!r}")
            continue
        kind = _KINDS.get(s_kind)
        if kind is None:
            yield ParseError(line_no, BAD_ENUM, f"unknown kind {s_kind!r}")
            continue
        side = _SIDES.get(s_side)
        if side is None:
            yield ParseError(line_no, BAD_ENUM, f"unknown side {s_side!r}")
            continue

        if last_seq is not None and seq <= last_seq:
            yield ParseError(line_no, NON_MONOTONE_SEQ, f"seq {seq} not above previous {last_seq}")
            continue

        if kind is cancel:
            if size < 0 or price_ticks < 0:
                yield ParseError(line_no, BAD_VALUE, "negative size or price")
                continue
        else:
            if size <= 0 or price_ticks <= 0:
                yield ParseError(
                    line_no, BAD_VALUE, "submissions need size > 0 and price_ticks > 0"
                )
                continue

        instrument = intern(instrument)
        day = ts.date()
        entry = live.get((instrument, day))
        if entry is None:  # the day's first row: its time and id pass
            if in_date_order:
                prev_day = current_day.get(instrument)
                if prev_day is not None:
                    if day < prev_day:
                        raise DaysOutOfOrder(
                            f"line {line_no}: {instrument} goes back from {prev_day} to {day}"
                        )
                    live.pop((instrument, prev_day), None)
                current_day[instrument] = day
            entry = live[instrument, day] = [ts, array("q"), set()]
        else:
            try:
                earlier = ts < entry[0]
            except TypeError:  # one of the two carries a UTC offset, the other not
                yield ParseError(
                    line_no, MIXED_UTC_OFFSET,
                    f"timestamp {s_ts} mixes UTC-offset and naive timestamps in one "
                    "instrument-day",
                )
                continue
            if earlier:
                yield ParseError(line_no, NON_MONOTONE_TIME, f"timestamp {s_ts} before previous event")
                continue

        if kind is not cancel:
            _, rising, rest = entry
            if rising and order_id <= rising[-1]:
                seen = order_id in rest or rising[bisect_left(rising, order_id)] == order_id
                if not seen:
                    rest.add(order_id)
            else:
                seen = order_id in rest  # an id too large for the array may be there
                if not seen:
                    try:
                        rising.append(order_id)
                    except OverflowError:
                        rest.add(order_id)
            if seen:
                yield ParseError(
                    line_no, DUPLICATE_ORDER_ID, f"order_id {order_id} already submitted"
                )
                continue

        last_seq = seq
        entry[0] = ts
        yield new(OrderEvent, (
            seq, ts, instrument, order_id, kind, side,
            share(price_ticks, price_ticks), share(size, size),
        ))


def parse_stream(source: str | Iterable[str]) -> ParseResult:
    """Parse an order-flow CSV into events plus structured errors (see iter_parse)."""
    result = ParseResult()
    events, errors = result.events.append, result.errors.append
    for item in iter_parse(source):
        if type(item) is ParseError:
            errors(item)
        else:
            events(item)
    return result


def serialize_events(events: Iterable[OrderEvent]) -> str:
    """Render events in the canonical CSV format (inverse of parse_stream)."""
    out = [HEADER]
    out.extend(ev.to_row() for ev in events)
    return "\n".join(out) + "\n"


def split_days(events: Iterable[OrderEvent]) -> dict[tuple[str, date], list[OrderEvent]]:
    """Group events by (instrument, trading day), preserving file order."""
    days: dict[tuple[str, date], list[OrderEvent]] = {}
    for ev in events:
        days.setdefault((ev.instrument, ev.timestamp.date()), []).append(ev)
    return days
