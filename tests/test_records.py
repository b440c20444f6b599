"""The record types' contract and the bytes of small seeded pipelines.

The golden stream and cancels.csv digests were taken from the
dataclass-based records that the tuple records replaced; the cancels.csv
digest is that of the same file with its three ratio columns cut
(`cut -d, -f1-11,15-`), which the integer-only layout writes. Both files are
pure-Python formatting, so they do not depend on the numpy version. The
profiles.json digests, and those of the deeper book, were taken before the
replay built its records with tuple.__new__ and found queue positions by
bisection. profiles.json is numpy's binning, and the log-uniform bins'
edges and densities differ in their last bits from one CPU to another
(np.geomspace runs numpy's SIMD log10 and power: with and without AVX-512
they differ), so its digest is taken with those floats cut to 10 significant
digits (`conftest.profiles_sha256`). The opening-call digests were taken while the
replay still held a day's opening-call and cool events back and applied them
at its first 09:30 event.
"""
import hashlib
import json
import pickle
import re
from datetime import datetime, timedelta, timezone

import pytest

from conftest import profiles_sha256
from lobcancel.cli import main
from lobcancel.lob import CancellationRecord, Trade
from lobcancel.orderflow import HEADER, EventKind, OrderEvent, SessionPhase, Side
from lobcancel.profiles import AggressivenessClass, CancelObservation
from lobcancel.reportio import cancels_csv

GOLDEN_GEN = [
    "--events", "5000", "--seed", "7", "--instrument", "GOLD01",
    "--level-law", "lognormal:-2.14,1.11", "--queue-law", "exp:-25",
    "--mix", "0.5,0.1,0.4", "--levels", "20", "--queue-depth", "8",
]
GOLDEN_CSV_SHA256 = "a25cfa2c5a3b7ff4d8191b105037e159be3215c249c9715a2fbea6892da6a335"
GOLDEN_CANCELS_SHA256 = "9c89be088439886643f1fcfe668d09725e65c5e3dffa67e647af333ad6d7ae03"
GOLDEN_PROFILES_SHA256 = "ab2156b36fd664c39c8783f36616215410e209c6c40a47c162ac99e480bca052"

# A deeper book: 60 levels of about 40 orders, where cancels meet long
# queues and ladders, as on the benchmark's deep_book.
DEEP_GEN = [
    "--events", "20000", "--seed", "7", "--instrument", "DEEP02",
    "--level-law", "lognormal:-2.14,1.11", "--queue-law", "exp:-25",
    "--mix", "0.6,0.0,0.4", "--levels", "60", "--queue-depth", "40",
]
DEEP_CSV_SHA256 = "bba4f39aa444a2d6ceccc9b0d219cd29ccc04771b95df2e91da622ea5422589b"
DEEP_CANCELS_SHA256 = "7718ed62e82a2a501ae4e2a3f6bd9d6de3fc26dda92b584440f2676f874b46c6"
DEEP_PROFILES_SHA256 = "59e51c6d5ba537fd08d0460854e6f88cf56459f18f59d7ce12e21cdd89acdbe8"


# Two instruments whose first CALL_ROWS rows each are restamped across the
# opening call and the cool period, 09:15:00.000 to 09:29:59.999, then merged
# with the rest by timestamp: their books open before 09:30, as an exchange
# day's do. `gen` itself stamps from 09:30.
CALL_GENS = [
    ["--events", "3000", "--seed", "11", "--instrument", "CALL01",
     "--level-law", "lognormal:-2.14,1.11", "--queue-law", "exp:-25",
     "--mix", "0.5,0.1,0.4", "--levels", "10", "--queue-depth", "4"],
    ["--events", "3000", "--seed", "12", "--instrument", "CALL02",
     "--mix", "0.6,0.1,0.3", "--levels", "8", "--queue-depth", "3"],
]
CALL_ROWS = 700
CALL_CSV_SHA256 = "206c2425f39aba30459eb14d8ffef86652a04795e807cf479385640a81abfa17"
CALL_CANCELS_SHA256 = "63c11306def3773b4cb3847377d6d69d607fe5089d7e2b9f1c903fab96ab688e"
CALL_PROFILES_SHA256 = "72470e1e8313f5977eeffda5eda6058a37dec020fcf15a3f9bc8fd6db43ecbf5"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pipeline_digests(tmp_path, gen: list[str]) -> tuple[str, str, str]:
    """sha256 of the `gen` stream, then of the cancels.csv and profiles.json of its profile."""
    stream = tmp_path / "gold.csv"
    assert main(["gen", "--out", str(stream), *gen]) == 0
    assert main(["profile", str(stream), "--out", str(tmp_path / "prof")]) == 0
    return (_sha256(stream), _sha256(tmp_path / "prof" / "cancels.csv"),
            profiles_sha256(tmp_path / "prof" / "profiles.json"))


def test_golden_gen_csv_and_cancels_csv_bytes(tmp_path):
    assert _pipeline_digests(tmp_path, GOLDEN_GEN) == (
        GOLDEN_CSV_SHA256, GOLDEN_CANCELS_SHA256, GOLDEN_PROFILES_SHA256)


def test_golden_deep_book_bytes(tmp_path):
    assert _pipeline_digests(tmp_path, DEEP_GEN) == (
        DEEP_CSV_SHA256, DEEP_CANCELS_SHA256, DEEP_PROFILES_SHA256)


def test_golden_opening_call_and_cool_bytes(tmp_path):
    # Every call/cool phase reaches the book before the day's first 09:30
    # event, and none of it reaches the densities or the ratios.
    opening = datetime(2003, 6, 2, 9, 15)
    rows = []  # (timestamp, instrument's position, row without its seq)
    for k, gen in enumerate(CALL_GENS):
        stream = tmp_path / f"call{k}.csv"
        assert main(["gen", "--out", str(stream), *gen]) == 0
        for i, row in enumerate(stream.read_text(encoding="utf-8").splitlines()[1:]):
            _, stamp, rest = row.split(",", 2)
            if i < CALL_ROWS:
                at = opening + timedelta(milliseconds=i * 899_999 // (CALL_ROWS - 1))
                stamp = at.isoformat("T", "milliseconds")
            rows.append((stamp, k, rest))
    rows.sort(key=lambda row: row[:2])  # stable: each instrument keeps its row order
    assert rows[0][0] == "2003-06-02T09:15:00.000"
    assert rows[2 * CALL_ROWS - 1][0] == "2003-06-02T09:29:59.999"
    merged = tmp_path / "merged.csv"
    merged.write_text("\n".join([HEADER, *(f"{seq},{stamp},{rest}" for seq, (stamp, _, rest)
                                           in enumerate(rows, start=1))]) + "\n",
                      encoding="utf-8")
    assert main(["profile", str(merged), "--out", str(tmp_path / "prof")]) == 0
    profiles = json.loads((tmp_path / "prof" / "profiles.json").read_text(encoding="utf-8"))
    assert [block["diagnostics"]["held_events"] for block in profiles["instruments"]] == [
        CALL_ROWS, CALL_ROWS]
    assert (_sha256(merged), _sha256(tmp_path / "prof" / "cancels.csv"),
            profiles_sha256(tmp_path / "prof" / "profiles.json")) == (
        CALL_CSV_SHA256, CALL_CANCELS_SHA256, CALL_PROFILES_SHA256)


def test_a_utc_offset_on_every_timestamp_leaves_profiles_json_unchanged(tmp_path):
    # Phases and days are read off the local time of day, so "+08:00" on
    # every timestamp changes cancels.csv's timestamps and nothing else.
    stream = tmp_path / "gold.csv"
    assert main(["gen", "--out", str(stream), *GOLDEN_GEN]) == 0
    header, *rows = stream.read_text(encoding="utf-8").splitlines()
    offset = tmp_path / "offset.csv"
    offset.write_text("\n".join([header, *(re.sub(r"^([^,]*,[^,]*)", r"\1+08:00", row)
                                           for row in rows)]) + "\n", encoding="utf-8")
    assert ",2003-06-02T09:30:00.000+08:00," in offset.read_text(encoding="utf-8")
    for path in (stream, offset):
        assert main(["profile", str(path), "--out", str(tmp_path / path.stem)]) == 0
    assert _sha256(tmp_path / "offset" / "profiles.json") == _sha256(
        tmp_path / "gold" / "profiles.json")
    assert profiles_sha256(tmp_path / "offset" / "profiles.json") == GOLDEN_PROFILES_SHA256
    naive, aware = ((tmp_path / name / "cancels.csv").read_text(encoding="utf-8").splitlines()
                    for name in ("gold", "offset"))
    assert [re.sub(r"\+08:00,", ",", row) for row in aware] == naive


def _record(**changes):
    fields = dict(cancel_index=4, side=Side.SELL, level_rank=2, side_levels=3,
                  level_orders=5, side_orders=9, queue_rank=5, cancelled_size=100)
    fields.update(changes)
    return CancellationRecord(**fields)


def _observation():
    return CancelObservation(
        "000777", 12, datetime(2003, 6, 2, 9, 31, 0, 250_000), SessionPhase.CONTINUOUS_AM,
        _record(), AggressivenessClass.AT_BEST, True, False,
    )


RECORDS = {
    "OrderEvent": lambda: OrderEvent(
        1, datetime(2003, 6, 2, 9, 31), "000777", 5, EventKind.LIMIT, Side.BUY, 1000, 100
    ),
    "Trade": lambda: Trade(1, 2, 1000, 50),
    "CancellationRecord": _record,
    "CancelObservation": _observation,
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(kind):
    record = RECORDS[kind]()
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_cancel_observation_survives_a_pickle_round_trip():
    # `profile --workers N` ships each job's InstrumentProfile and part-file path,
    # not its observations; an observation still pickles as its tuple does.
    obs = _observation()
    back = pickle.loads(pickle.dumps(obs))
    assert back == obs
    assert type(back) is CancelObservation and type(back.record) is CancellationRecord
    assert back.phase is obs.phase and back.record.side is Side.SELL
    assert back.order_class is AggressivenessClass.AT_BEST
    assert (back.record.rel_level, back.record.norm_level, back.record.queue_frac) == (
        obs.record.rel_level, obs.record.norm_level, obs.record.queue_frac
    )


@pytest.mark.parametrize(
    "changes",
    [
        {"level_rank": 4},           # beyond the occupied levels
        {"level_rank": 0},
        {"queue_rank": 6},           # beyond the queue
        {"level_orders": 10},        # more orders at the level than on the side
        {"cancelled_size": 0},
    ],
)
def test_inconsistent_cancellation_record_raises(changes):
    with pytest.raises(ValueError, match="inconsistent cancellation record"):
        _record(**changes)
    with pytest.raises(ValueError, match="inconsistent cancellation record"):
        _record()._replace(**changes)


def test_cancels_csv_writes_each_stamp_as_isoformat_does(tmp_path):
    # Naive stamps are written from a per-day prefix and tables, others by isoformat.
    stamps = [
        datetime(2003, 6, 2, 9, 30), datetime(2003, 6, 2, 9, 30, 0, 999),
        datetime(2003, 6, 2, 11, 29, 59, 999_999), datetime(2003, 6, 3, 0, 0, 0, 1_000),
        datetime(2003, 6, 2, 23, 59, 1, 123_456), datetime(999, 1, 2, 3, 4, 5, 60_000),
        datetime(2003, 6, 2, 9, 31, 6, 250_000, tzinfo=timezone(timedelta(hours=8))),
        datetime(2003, 6, 2, 13, 0, 0, 7_000),
    ]
    path = tmp_path / "cancels.part"
    cancels_csv(path, [_observation()._replace(timestamp=ts) for ts in stamps])
    rows = path.read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[2] for row in rows] == [ts.isoformat("T", "milliseconds")
                                                   for ts in stamps]
    assert rows[6].split(",")[2] == "2003-06-02T09:31:06.250+08:00"


def test_cancellation_record_keeps_its_derived_coordinates():
    rec = _record()
    assert (rec.rel_level, rec.norm_level, rec.queue_frac) == (2 / 3, (2 * 9) / (3 * 5), 1.0)
    assert pickle.loads(pickle.dumps(rec)) == rec
