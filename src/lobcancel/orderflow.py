"""Order-flow event model and CSV stream parsing.

The canonical wire format is a UTF-8 CSV with header

    seq,timestamp,instrument,order_id,kind,side,price_ticks,size

where kind is one of L (limit), M (marketable), C (cancel), side is B or S,
timestamps are ISO-8601 with millisecond precision, and prices are integer
ticks (one tick = 0.01 CNY for Shenzhen A shares). A cancel with size 0 means
"cancel the full remaining quantity".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, time
from enum import Enum
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

# Half-open [start, end) phase boundaries, in time-of-day order.
_PHASE_WINDOWS = (
    (time(9, 15), time(9, 25), SessionPhase.OPENING_CALL),
    (time(9, 25), time(9, 30), SessionPhase.COOL),
    (time(9, 30), time(11, 30), SessionPhase.CONTINUOUS_AM),
    (time(11, 30), time(13, 0), SessionPhase.LUNCH),
    (time(13, 0), time(15, 0), SessionPhase.CONTINUOUS_PM),
)

HEADER = "seq,timestamp,instrument,order_id,kind,side,price_ticks,size"


def phase_of(ts: datetime | time) -> SessionPhase:
    """Map a timestamp to its session phase (total and pure)."""
    tod = ts.time() if isinstance(ts, datetime) else ts
    for start, end, phase in _PHASE_WINDOWS:
        if start <= tod < end:
            return phase
    return SessionPhase.CLOSED


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
DUPLICATE_ORDER_ID = "duplicate_order_id"


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


def parse_stream(source: str | bytes | IO | Iterable[str]) -> ParseResult:
    """Parse an order-flow CSV into events plus structured errors.

    Every record either yields an OrderEvent or a ParseError with its line
    number; bad rows are skipped and parsing continues. Validation covers the
    header, column count, field types, enum letters, strictly increasing seq,
    non-decreasing timestamps per instrument-day, unique submission ids per
    instrument-day, and positive size/price for submissions.
    """
    result = ParseResult()
    lines = _iter_lines(source)

    header = next(lines, None)
    if header is None or header.strip() != HEADER:
        got = "" if header is None else header.strip()
        result.errors.append(ParseError(1, BAD_HEADER, f"expected header {HEADER!r}, got {got!r}"))
        return result

    cancel = EventKind.CANCEL  # bound once: a lookup on the Enum class runs Python code
    last_seq: int | None = None
    last_ts: dict[tuple[str, date], datetime] = {}
    seen_ids: dict[tuple[str, date], set[int]] = {}

    for line_no, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            result.errors.append(
                ParseError(line_no, MALFORMED_ROW, f"expected 8 columns, got {len(parts)}")
            )
            continue
        s_seq, s_ts, instrument, s_oid, s_kind, s_side, s_price, s_size = parts
        try:
            seq = int(s_seq)
            order_id = int(s_oid)
            price_ticks = int(s_price)
            size = int(s_size)
        except ValueError:
            result.errors.append(ParseError(line_no, MALFORMED_ROW, "non-integer numeric field"))
            continue
        try:
            ts = datetime.fromisoformat(s_ts)
        except ValueError:
            result.errors.append(ParseError(line_no, MALFORMED_ROW, f"bad timestamp {s_ts!r}"))
            continue
        kind = _KINDS.get(s_kind)
        if kind is None:
            result.errors.append(ParseError(line_no, BAD_ENUM, f"unknown kind {s_kind!r}"))
            continue
        side = _SIDES.get(s_side)
        if side is None:
            result.errors.append(ParseError(line_no, BAD_ENUM, f"unknown side {s_side!r}"))
            continue

        if last_seq is not None and seq <= last_seq:
            result.errors.append(
                ParseError(line_no, NON_MONOTONE_SEQ, f"seq {seq} not above previous {last_seq}")
            )
            continue

        if kind is cancel:
            if size < 0 or price_ticks < 0:
                result.errors.append(ParseError(line_no, BAD_VALUE, "negative size or price"))
                continue
        else:
            if size <= 0 or price_ticks <= 0:
                result.errors.append(
                    ParseError(line_no, BAD_VALUE, "submissions need size > 0 and price_ticks > 0")
                )
                continue

        day_key = (instrument, ts.date())
        prev_ts = last_ts.get(day_key)
        if prev_ts is not None and ts < prev_ts:
            result.errors.append(
                ParseError(line_no, NON_MONOTONE_TIME, f"timestamp {s_ts} before previous event")
            )
            continue

        if kind is not cancel:
            ids = seen_ids.setdefault(day_key, set())
            if order_id in ids:
                result.errors.append(
                    ParseError(line_no, DUPLICATE_ORDER_ID, f"order_id {order_id} already submitted")
                )
                continue
            ids.add(order_id)

        last_seq = seq
        last_ts[day_key] = ts
        result.events.append(
            OrderEvent(seq, ts, instrument, order_id, kind, side, price_ticks, size)
        )

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
