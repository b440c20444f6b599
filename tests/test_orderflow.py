import random
from datetime import date, datetime, time, timedelta, timezone

from lobcancel.orderflow import (
    BAD_ENUM,
    BAD_HEADER,
    DUPLICATE_ORDER_ID,
    HEADER,
    MALFORMED_ROW,
    MIXED_UTC_OFFSET,
    NON_MONOTONE_SEQ,
    NON_MONOTONE_TIME,
    EventKind,
    OrderEvent,
    SessionPhase,
    Side,
    parse_stream,
    phase_of,
    serialize_events,
    split_days,
)


def make_csv(*rows: str) -> str:
    return "\n".join((HEADER,) + rows) + "\n"


def test_parse_single_row_field_mapping():
    result = parse_stream(make_csv("1,2003-01-02T09:31:05.120,000001,42,L,B,1025,500"))
    assert result.ok
    (ev,) = result.events
    assert ev == OrderEvent(
        1, datetime(2003, 1, 2, 9, 31, 5, 120000), "000001", 42,
        EventKind.LIMIT, Side.BUY, 1025, 500,
    )


def test_parse_rejects_unknown_side():
    result = parse_stream(make_csv("1,2003-01-02T09:31:05.120,000001,42,L,X,1025,500"))
    assert not result.events
    (err,) = result.errors
    assert err.code == BAD_ENUM
    assert err.line == 2


def test_parse_rejects_unknown_kind():
    result = parse_stream(make_csv("1,2003-01-02T09:31:05.120,000001,42,Q,B,1025,500"))
    assert result.errors[0].code == BAD_ENUM


def test_parse_bad_header():
    result = parse_stream("seq,time,foo\n1,2,3\n")
    assert result.errors[0].code == BAD_HEADER
    assert not result.events


def test_parse_wrong_column_count():
    result = parse_stream(make_csv("1,2003-01-02T09:31:05.120,000001,42,L,B,1025"))
    assert result.errors[0].code == MALFORMED_ROW


def test_parse_bad_int_and_bad_timestamp():
    result = parse_stream(
        make_csv(
            "x,2003-01-02T09:31:05.120,000001,42,L,B,1025,500",
            "2,not-a-time,000001,43,L,B,1025,500",
        )
    )
    assert [e.code for e in result.errors] == [MALFORMED_ROW, MALFORMED_ROW]


def test_parse_non_monotone_seq():
    result = parse_stream(
        make_csv(
            "5,2003-01-02T09:31:05.120,000001,42,L,B,1025,500",
            "5,2003-01-02T09:31:06.120,000001,43,L,B,1025,500",
        )
    )
    assert [e.code for e in result.errors] == [NON_MONOTONE_SEQ]
    assert len(result.events) == 1


def test_parse_non_monotone_timestamp_within_instrument_day():
    result = parse_stream(
        make_csv(
            "1,2003-01-02T09:31:05.120,000001,42,L,B,1025,500",
            "2,2003-01-02T09:31:04.120,000001,43,L,B,1025,500",
        )
    )
    assert [e.code for e in result.errors] == [NON_MONOTONE_TIME]


def test_parse_duplicate_submission_id():
    result = parse_stream(
        make_csv(
            "1,2003-01-02T09:31:05.120,000001,42,L,B,1025,500",
            "2,2003-01-02T09:31:06.120,000001,42,L,S,1030,200",
        )
    )
    assert [e.code for e in result.errors] == [DUPLICATE_ORDER_ID]


def test_duplicate_ids_are_found_in_and_out_of_rising_order():
    # Rising ids, ids below the run, ids past the 8-byte range and negative
    # ids; each is refused when it comes back, in the same day only.
    ids = [5, 9, 7, 2**63, 12, -3, 2**70, 10, 7, 2**63, 12, -3, 9, 2**70, 5, 13]
    rows = [f"{i},2003-01-02T09:31:{i:02d}.000,000001,{oid},L,B,1025,100"
            for i, oid in enumerate(ids, start=1)]
    rows += [f"{i},2003-01-03T09:31:00.000,000001,{oid},L,B,1025,100"
             for i, oid in enumerate((9, 2**63, 7), start=len(ids) + 1)]
    result = parse_stream(make_csv(*rows))
    refused = [int(e.message.split()[1]) for e in result.errors]
    assert {e.code for e in result.errors} == {DUPLICATE_ORDER_ID}
    assert refused == [7, 2**63, 12, -3, 9, 2**70, 5]
    assert [ev.order_id for ev in result.events] == [5, 9, 7, 2**63, 12, -3, 2**70, 10, 13,
                                                      9, 2**63, 7]


def test_parse_rejects_nonpositive_submission_fields():
    result = parse_stream(
        make_csv(
            "1,2003-01-02T09:31:05.120,000001,42,L,B,0,500",
            "2,2003-01-02T09:31:06.120,000001,43,M,B,1025,0",
            "3,2003-01-02T09:31:07.120,000001,44,C,B,0,0",
        )
    )
    assert len(result.errors) == 2  # the cancel with zero price and size is fine
    assert len(result.events) == 1
    assert result.events[0].kind is EventKind.CANCEL


def test_errors_skip_rows_but_parsing_continues():
    result = parse_stream(
        make_csv(
            "1,2003-01-02T09:31:05.120,000001,42,L,B,1025,500",
            "bogus line",
            "2,2003-01-02T09:31:06.120,000001,43,L,S,1030,200",
        )
    )
    assert len(result.events) == 2
    assert len(result.errors) == 1


def random_events(rng: random.Random, n: int) -> list[OrderEvent]:
    base = datetime(2003, 3, 14, 9, 30, 0)
    events = []
    ts = base
    for i in range(n):
        ts += timedelta(milliseconds=rng.randrange(0, 2000))
        kind = rng.choice(list(EventKind))
        events.append(
            OrderEvent(
                seq=i + 1,
                timestamp=ts,
                instrument=rng.choice(["000001", "000625"]),
                order_id=1000 + i,
                kind=kind,
                side=rng.choice(list(Side)),
                price_ticks=rng.randrange(1, 5000),
                size=0 if kind is EventKind.CANCEL and rng.random() < 0.5 else rng.randrange(1, 9999),
            )
        )
    return events


def test_roundtrip_random_streams():
    # serialize -> parse reproduces the identical event sequence
    rng = random.Random(271828)
    for trial in range(25):
        events = random_events(rng, rng.randrange(1, 60))
        result = parse_stream(serialize_events(events))
        assert result.ok, result.errors
        assert result.events == events


def test_reserialize_is_byte_identical(fixture_csv):
    text = fixture_csv.read_text(encoding="utf-8")
    result = parse_stream(text)
    assert result.ok
    assert serialize_events(result.events) == text


def test_phase_boundaries():
    day = date(2003, 1, 2)
    cases = [
        (time(9, 14, 59, 999000), SessionPhase.CLOSED),
        (time(9, 15), SessionPhase.OPENING_CALL),
        (time(9, 25), SessionPhase.COOL),
        (time(9, 30), SessionPhase.CONTINUOUS_AM),
        (time(11, 29, 59, 999000), SessionPhase.CONTINUOUS_AM),
        (time(11, 30), SessionPhase.LUNCH),
        (time(12, 0), SessionPhase.LUNCH),
        (time(13, 0), SessionPhase.CONTINUOUS_PM),
        (time(14, 59, 59, 999000), SessionPhase.CONTINUOUS_PM),
        (time(15, 0), SessionPhase.CLOSED),
        (time(20, 30), SessionPhase.CLOSED),
    ]
    for tod, want in cases:
        assert phase_of(tod) is want
        assert phase_of(datetime.combine(day, tod)) is want


def test_phase_of_is_pure():
    ts = datetime(2003, 1, 2, 9, 27, 13)
    assert phase_of(ts) is phase_of(ts)


def test_split_days_groups_and_preserves_order():
    rng = random.Random(99)
    events = random_events(rng, 80)
    days = split_days(events)
    assert sum(len(v) for v in days.values()) == len(events)
    for (instrument, day), chunk in days.items():
        assert all(ev.instrument == instrument for ev in chunk)
        assert all(ev.timestamp.date() == day for ev in chunk)
        seqs = [ev.seq for ev in chunk]
        assert seqs == sorted(seqs)


# The window scan that phase_of replaced: half-open [start, end) windows.
_OLD_WINDOWS = (
    (time(9, 15), time(9, 25), SessionPhase.OPENING_CALL),
    (time(9, 25), time(9, 30), SessionPhase.COOL),
    (time(9, 30), time(11, 30), SessionPhase.CONTINUOUS_AM),
    (time(11, 30), time(13, 0), SessionPhase.LUNCH),
    (time(13, 0), time(15, 0), SessionPhase.CONTINUOUS_PM),
)


def _old_phase_of(tod: time) -> SessionPhase:
    for start, end, phase in _OLD_WINDOWS:
        if start <= tod < end:
            return phase
    return SessionPhase.CLOSED


def test_phase_of_equals_the_window_scan_around_every_boundary():
    day = date(2003, 1, 2)
    offset = timezone(timedelta(hours=8))
    bounds = {b for start, end, _ in _OLD_WINDOWS for b in (start, end)}
    checked = 0
    for bound in sorted(bounds) + [time(0, 0), time(23, 59, 59, 999000)]:
        for step in (-1, 0, 1):
            naive = datetime.combine(day, bound) + timedelta(milliseconds=step)
            if naive.date() != day:
                continue
            want = _old_phase_of(naive.time())
            assert phase_of(naive) is want
            assert phase_of(naive.time()) is want
            assert phase_of(naive.replace(tzinfo=offset)) is want
            checked += 1
    assert checked == 3 * len(bounds) + 4  # midnight -1 ms and 23:59:59.999 +1 ms are other days


def test_mixed_offset_and_naive_timestamps_are_a_parse_error():
    result = parse_stream(make_csv(
        "1,2003-01-02T09:31:05.000,000001,1,L,B,1025,500",
        "2,2003-01-02T09:31:06.000+08:00,000001,2,L,B,1024,500",
        "3,2003-01-02T09:31:07.000,000001,3,L,B,1023,500",
    ))
    assert [ev.seq for ev in result.events] == [1, 3]
    (err,) = result.errors
    assert (err.line, err.code) == (3, MIXED_UTC_OFFSET)


def test_timestamps_that_all_carry_an_offset_are_accepted():
    result = parse_stream(make_csv(
        "1,2003-01-02T09:31:05.000+08:00,000001,1,L,B,1025,500",
        "2,2003-01-02T09:31:06.000+08:00,000001,2,L,B,1024,500",
        "3,2003-01-02T09:31:04.000+08:00,000001,3,L,B,1023,500",
    ))
    assert [ev.seq for ev in result.events] == [1, 2]
    assert [err.code for err in result.errors] == [NON_MONOTONE_TIME]
    assert result.events[0].timestamp.utcoffset() == timedelta(hours=8)


def test_instrument_codes_are_interned():
    result = parse_stream(make_csv(
        "1,2003-01-02T09:31:05.000,000001,1,L,B,1025,500",
        "2,2003-01-02T09:31:06.000,000001,2,L,B,1024,500",
    ))
    first, second = result.events
    assert first.instrument is second.instrument
