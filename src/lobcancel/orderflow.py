"""Order-flow event model and CSV stream parsing.

The canonical wire format is a UTF-8 CSV with header

    seq,timestamp,instrument,order_id,kind,side,price_ticks,size

where kind is one of L (limit), M (marketable), C (cancel), side is B or S,
timestamps are ISO-8601 with millisecond precision, and prices are integer
ticks (one tick = 0.01 CNY for Shenzhen A shares). A cancel with size 0 means
"cancel the full remaining quantity".
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from datetime import date, datetime, time
from enum import Enum
from sys import intern
from typing import IO, Iterable, Iterator, NamedTuple


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
HELD_PHASES = frozenset({SessionPhase.OPENING_CALL, SessionPhase.COOL})

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
    read in date order (see ``iter_parse`` and ``stream_days``)."""


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


def _iter_lines(source: str | bytes | IO | Iterable[str]) -> Iterator[str]:
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        yield from source.splitlines()
    else:
        for line in source:
            yield line.rstrip("\r\n")


def iter_parse(
    source: str | bytes | IO | Iterable[str], *, in_date_order: bool = False
) -> Iterator[OrderEvent | ParseError]:
    """Parse an order-flow CSV lazily, yielding an OrderEvent or a ParseError per record.

    Every bad record yields a ParseError with its line number and is skipped;
    parsing continues. Validation covers the header, column count, field
    types, enum letters, strictly increasing seq, non-decreasing timestamps
    per instrument-day (all naive or all with a UTC offset), unique
    submission ids per instrument-day, and positive size/price for
    submissions. Instrument codes are interned.

    The checks keep per-instrument-day state. With ``in_date_order`` a day's
    state is dropped once its instrument moves on to a later date, so the
    state stays one day per instrument, and a row that takes its instrument
    back to an earlier date raises DaysOutOfOrder; the records yielded up to
    then are those of the default mode.
    """
    lines = _iter_lines(source)

    header = next(lines, None)
    if header is None or header.strip() != HEADER:
        got = "" if header is None else header.strip()
        yield ParseError(1, BAD_HEADER, f"expected header {HEADER!r}, got {got!r}")
        return

    cancel = EventKind.CANCEL  # bound once: a lookup on the Enum class runs Python code
    last_seq: int | None = None
    last_ts: dict[tuple[str, date], datetime] = {}
    seen_ids: dict[tuple[str, date], set[int]] = {}
    current_day: dict[str, date] = {}  # in date order: each instrument's day

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
        day_key = (instrument, day)
        prev_ts = last_ts.get(day_key)
        if prev_ts is None:
            if in_date_order:
                prev_day = current_day.get(instrument)
                if prev_day is not None:
                    if day < prev_day:
                        raise DaysOutOfOrder(
                            f"line {line_no}: {instrument} goes back from {prev_day} to {day}"
                        )
                    last_ts.pop((instrument, prev_day), None)
                    seen_ids.pop((instrument, prev_day), None)
                current_day[instrument] = day
        else:
            try:
                earlier = ts < prev_ts
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
            ids = seen_ids.setdefault(day_key, set())
            if order_id in ids:
                yield ParseError(
                    line_no, DUPLICATE_ORDER_ID, f"order_id {order_id} already submitted"
                )
                continue
            ids.add(order_id)

        last_seq = seq
        last_ts[day_key] = ts
        yield OrderEvent(seq, ts, instrument, order_id, kind, side, price_ticks, size)


def parse_stream(source: str | bytes | IO | Iterable[str]) -> ParseResult:
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


def _drain(buffer: deque) -> Iterator[OrderEvent]:
    """Yield and drop a buffer's events from the front."""
    popleft = buffer.popleft
    while buffer:
        yield popleft()


def stream_days(
    events: Iterable[OrderEvent], *, in_date_order: bool = False
) -> Iterator[Iterator[OrderEvent]]:
    """Yield each instrument-day's events, in stream order, as a draining iterator.

    By default every day is buffered to the end of the stream and the days
    come out in (instrument, day) order, the grouping of ``split_days``.
    With ``in_date_order`` an instrument-day is yielded as soon as a later
    date of its instrument arrives, so one day per instrument is buffered;
    an earlier date raises DaysOutOfOrder, and the days still buffered at
    the end come out in (instrument, day) order. A day's buffer is out of
    the stream's hands once yielded, so a day left undrained is dropped.
    """
    buffers: dict[tuple[str, date], deque] = {}
    current_day: dict[str, date] = {}
    for ev in events:
        key = (ev.instrument, ev.timestamp.date())
        buffer = buffers.get(key)
        if buffer is None:
            if in_date_order:
                instrument, day = key
                prev_day = current_day.get(instrument)
                if prev_day is not None:
                    if day < prev_day:
                        raise DaysOutOfOrder(f"{instrument} goes back from {prev_day} to {day}")
                    yield _drain(buffers.pop((instrument, prev_day)))
                current_day[instrument] = day
            buffer = buffers[key] = deque()
        buffer.append(ev)
    for key in sorted(buffers):
        yield _drain(buffers.pop(key))
